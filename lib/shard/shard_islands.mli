(** Island-model evolutionary search over forked worker processes
    (ROADMAP item 4(c)).

    [islands] independent populations evolve in parallel, each from
    its own seed ([cfg.seed] for island 0, deterministic offsets
    after), synchronising every [epoch] generations at a barrier where
    (1) a perfect sorter on any island stops the run and (2) otherwise
    each island's first [migrants] slots — its elite head — replace
    the {e last} [migrants] slots of its right neighbour on the ring.
    Migration rides the same canonical population serialization
    ({!Evolve.population_payload}) the checkpoint envelope uses, so a
    work unit, a checkpoint, and a migration message are one format.

    Each epoch of each island is one {!Evolve.run_segment} in a
    {!Shard} worker. Segments are pure functions of
    [(config, start_gen, population)] — every draw keyed by the
    absolute generation — so the at-least-once supervisor can kill,
    stall, or corrupt any worker attempt ({!Fault}) and the retried
    segment recomputes byte-identical results: [`Processes] and
    [`Inline] (same schedule, no forks — the reference the tests
    compare digests against) always agree. With [islands = 1] the
    trajectory equals the single-process {!Evolve.run} on the same
    config.

    The champion is compared across islands by (fitness, size, island
    index) with {!Evolve}'s deterministic order; a find reports the
    earliest (generation, island) pair. *)

type t = {
  found : (int * int) option;
      (** earliest (absolute generation, island) evolving a perfect
          sorter, by (generation, island) order *)
  best : Genome.t;
  best_fitness : int;
  best_size : int;
  generations : int;
      (** absolute generations evaluated per island when the run
          stopped *)
  epochs_run : int;  (** completed synchronisation rounds *)
  populations : Genome.t array array;  (** final population per island *)
  interrupted : bool;  (** cancel tripped; state is the last barrier *)
}

val run :
  ?sink:Sink.t ->
  ?cancel:Cancel.t ->
  ?config:Shard.config ->
  mode:[ `Inline | `Processes ] ->
  dir:string ->
  islands:int ->
  epoch:int ->
  migrants:int ->
  Evolve.config ->
  (t, string) result
(** [run ~mode ~dir ~islands ~epoch ~migrants cfg] evolves [islands]
    populations for up to [cfg.gens] total generations each, in
    epochs of [epoch] generations. [`Processes] forks one worker per
    island per epoch under the {!Shard} supervisor ([config] defaults
    to [Shard.default_config ~dir] with [workers = islands]);
    [`Inline] runs the identical schedule in-process. [Error] when a
    poison island is quarantined.
    @raise Invalid_argument unless [islands >= 1], [epoch >= 1],
    [0 <= migrants <= cfg.pop / 2], and [cfg] validates. *)

(** {1 Worker results} *)

type epoch_result = {
  r_population : string;  (** {!Evolve.population_payload} text *)
  r_found_at : int option;  (** generation of a perfect sorter *)
  r_best_fitness : int;
  r_best_size : int;
  r_best : string;  (** {!Genome.to_string} of the segment's best *)
  r_generations : int;
}
(** What a worker sends back per epoch: the population in the canonical
    text format plus the segment verdict. *)

val result_to_string : epoch_result -> string
(** A JSON object of the six fields. *)

val result_of_string : string -> (epoch_result, string) result
(** The inverse of {!result_to_string}; [Error] on anything else
    (a truncated or corrupted result). *)
