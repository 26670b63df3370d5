(** Layered breadth-first search for exact small-network bounds, with
    frontier deduplication, pluggable move generation, a node/time
    budget, and built-in observability.

    The driver is generic over the move type ['m] so that both the
    general sorting-network search (moves = comparator layers, frontier
    deduplicated by subsumption) and the shuffle-restricted register
    search of {!Min_depth} (moves = op vectors, frontier deduplicated
    by state equality — channel permutations do not commute with the
    fixed shuffle, so subsumption would be unsound there) are thin
    instantiations. A system names each move's effect as one
    {!Arena.stage} (wire permutation, comparators, wire swaps), so
    every search runs on the same packed {!Arena} store: one level
    loop, one frontier representation.

    Level [k] of the BFS holds representatives of every state reachable
    by a [k]-move prefix. Each level expands every frontier entry by
    every move; a child that is sorted resolves the search immediately
    (its move list is the witness), a child failing the system's
    [prune] test or subsumed by a representative already kept (at this
    or any earlier level — both reductions preserve at least one
    depth-optimal witness) is dropped. The search is exhaustive up to
    those reductions, so [Unsorted] is a proof that no [max_depth]-move
    prefix sorts, and the first level at which a sorted child appears
    is the exact optimum.

    A run is single-domain and deterministic: outcome, witness and
    every statistic are a function of the system, [max_depth] and the
    node budget alone. Process-level fan-out lives in
    {!Shard_search}, which expands slices with {!expand_entries} and
    hands the results back to {!run}.

    A frontier entry is an {!Arena} row and its reversed move-index
    prefix (indices into [sys.moves_at]): checkpoints and shard
    transport carry just that, never an ['m] value or a boxed state.

    Observability: a run wrapped around an {!Obs.Sink} emits one
    ["span"] event per level (path ["search/level"]) whose [nodes] /
    [pruned] / [deduped] / [subsumed] fields are per-level deltas —
    summing them over all level events reproduces the final {!stats}
    exactly — plus a closing ["search"] event with the totals; the
    [on_level] callback delivers live cumulative stats after each
    completed level. Both cost nothing when absent.

    Crash safety: with [~checkpoint:(path, interval)] the driver cuts
    a snapshot of its whole loop state at every level boundary (the
    only points where that state is a consistent prefix of the
    search) and publishes it through {!Checkpoint.write} whenever
    [interval] seconds have passed since the last write — or since the
    start of the run, so the first write falls due one full interval
    in ([0.] = every boundary); boundaries skipped by the cadence
    cost a closure, not an encoding, so checkpointing is near-free
    between writes; a run interrupted by a {!Cancel} token, a signal
    handler tripping one, or an injected ["kill-level"] {!Fault}
    returns [Interrupted] after flushing the newest unwritten
    boundary. {!resume} reads a snapshot back; [run ~resume] then
    continues from that boundary with identical frontier, dedup
    memory, counters and already-spent budget, so the eventual
    outcome, witness and cumulative node counts are exactly those of
    a never-interrupted run. An incompatible or stale snapshot (other
    width, [max_depth], dedup mode or move tag) or one that fails to
    decode degrades to a fresh run with a [stderr] warning — resuming
    is never less safe than rerunning. *)

type budget = { max_nodes : int; max_seconds : float option }
(** [max_nodes] bounds move applications (edges explored);
    [max_seconds] optionally bounds {e wall-clock} time
    ({!Obs.Clock.wall}). *)

val default_budget : budget
(** 200 million nodes, no time cap. *)

type stats = {
  nodes : int;  (** move applications performed *)
  pruned : int;  (** children dropped by the system's prune test *)
  deduped : int;  (** children dropped as equal to a seen state *)
  subsumed : int;  (** children dropped by subsumption *)
  redundant : int;
      (** moves skipped before application by the system's
          [redundant_of] static-analysis hook (never counted in
          [nodes]) *)
  frontier_sizes : int list;  (** surviving frontier per completed level *)
  peak_frontier : int;
  completed_levels : int;
      (** levels fully expanded and deduplicated; on [Inconclusive],
          depths up to this value are exhaustively refuted *)
  elapsed : float;  (** wall-clock seconds *)
  elapsed_cpu : float;  (** CPU seconds *)
}

type 'm outcome =
  | Sorted of { depth : int; moves : 'm list; stats : stats }
      (** a sorting prefix exists; [moves] (in application order) is a
          witness of the {e minimal} length [depth <= max_depth] *)
  | Unsorted of stats
      (** no prefix of up to [max_depth] moves sorts (exhaustive) *)
  | Inconclusive of stats  (** budget exhausted first *)
  | Interrupted of stats
      (** cancelled (token, signal, or injected kill) before a
          verdict; [completed_levels] depths are still exhaustively
          refuted, and a configured checkpoint holds the last
          completed boundary for {!resume} *)

type dedup = Equal | Subsume

type 'm system = {
  n : int;
  tag : string;
      (** names the move type for checkpoint compatibility (e.g.
          ["layers"], ["shuffle-ops"]); a snapshot only resumes into a
          system with the same tag *)
  moves_at : level:int -> 'm list;
      (** moves available for the layer at 1-based [level] *)
  stage : 'm -> Arena.stage;
      (** the effect of a move on the reachable set, applied to the
          packed rows by the arena's word-parallel butterflies *)
  prune : level:int -> remaining:int -> (int -> bool) -> bool;
      (** sound necessary-condition filter, given membership of 0-1
          masks in a child's reachable set ({!Arena.staged_mem}, read
          before the child is committed): [true] only if the child
          cannot reach a sorted state within [remaining] more moves *)
  redundant_of : level:int -> int array -> 'm -> bool;
      (** static-analysis move filter, consulted {e before} a move is
          applied, given the parent's per-channel implication masks
          ({!Arena.implied}: [implied.(c)] is the AND of the reachable
          masks with bit [c] set): [true] only if some other available
          move (or the already-represented parent) provably reaches
          the same child, so skipping the move preserves a
          depth-optimal witness. The driver partially applies
          [redundant_of ~level implied] once per expanded state. Skips
          are counted in [stats.redundant] and the
          ["analysis.redundant_moves"] metric, not in [nodes]. A system
          other than {!no_redundant} must dedup by [Subsume]: only
          then does the arena store the masks. *)
  dedup : dedup;
}

val no_prune : level:int -> remaining:int -> (int -> bool) -> bool
val no_redundant : level:int -> int array -> 'a -> bool

type engine = [ `Arena ]
(** The only engine. Kept so callers that still name it (the
    benchmark harness) build unchanged; {!run} ignores it. *)

exception Malformed of string
(** A shard unit or result that fails to decode. *)

val expand_entries : 'm system -> max_depth:int -> string -> string
(** [expand_entries sys ~max_depth unit] expands a shard unit (a level
    and frontier rows) exactly as {!run} does, on a private arena,
    without budget checks, stopping after the first entry with a sorted
    child: per entry its tallies and its children as move indices and
    rows, for {!run} to replay. @raise Malformed if [unit] is. *)

type resume_state
(** A validated checkpoint snapshot, ready to hand to {!run}. *)

val resume : path:string -> (resume_state, string) result
(** Read a search checkpoint back, falling back to the [.bak] copy
    (with a [stderr] warning) when the primary is missing or corrupt.
    [Error] if neither copy is a valid search checkpoint — a torn or
    bit-flipped file is reported, never raised, and {e never} silently
    accepted (the envelope CRC catches any single corrupted byte). *)

val describe : resume_state -> string
(** One line naming the snapshot: tag, width, depth cap, next level. *)

val run :
  ?domains:int ->
  ?engine:engine ->
  ?budget:budget ->
  ?sink:Sink.t ->
  ?on_level:(level:int -> frontier:int -> stats -> unit) ->
  ?frontier_log:(level:int -> State.t list -> unit) ->
  ?cancel:Cancel.t ->
  ?checkpoint:string * float ->
  ?resume:resume_state ->
  ?expand:
    (level:int -> unit_of:(int list -> string) -> int list -> string list) ->
  max_depth:int ->
  'm system ->
  'm outcome
(** [run ~max_depth sys] searches prefixes of up to [max_depth] moves.
    [domains] and [engine] are accepted and ignored: the search is
    single-domain on the arena. [sink] (default {!Sink.null}) receives
    the per-level and closing span events; [on_level ~level ~frontier
    stats] fires after each {e completed} level with the surviving
    frontier size and a cumulative stats snapshot. [frontier_log
    ~level states] receives each completed level's surviving states in
    frontier order — the feed certificate emitters consume. [cancel]
    is polled between frontier entries and at level boundaries; once
    tripped the run returns [Interrupted]. [checkpoint:(path,
    interval)] snapshots progress at level boundaries at most every
    [interval] seconds (see the module preamble); [resume] continues
    from such a snapshot.

    [expand ~level ~unit_of rows], when given, replaces the in-process
    expansion of each level: it must return the {!expand_entries} of
    the units [unit_of slice] of consecutive slices of the frontier
    [rows] (ending at the first with a sorted child), or [[]] once
    [cancel] has tripped. The run then charges the budget, counts,
    dedups and subsumes the children in entry order, exactly as for an
    in-process level. @raise Malformed if a result is. *)

(** {1 Sorting-network instantiation} *)

type layer = Layers.layer

val network_system : ?restrict:bool -> n:int -> unit -> layer system
(** The general optimal-depth search on [n] wires. Both modes fix the
    canonical maximal first layer (Parberry; Bundala–Závodný Lemma 3 —
    justified independently of any frontier reduction). With [restrict]
    (default [true]) levels 2+ additionally use second layers up to
    first-layer symmetry and subsumption deduplication, and levels 3+
    consult the static-analysis [redundant_of] hook: a layer holding a
    comparator [(i, j)] that never fires on the state's reachable 0-1
    set (bit [j] of [implied.(i)] set) is skipped, because [Layers.all]
    contains the same layer without it — same child, one comparator
    cheaper. With [~restrict:false] they use every layer, equality-only
    deduplication and no analysis hook — the slow exhaustive reference
    the pruned search is validated against.
    @raise Invalid_argument unless [2 <= n <= 10]. *)

val optimal_depth :
  ?budget:budget -> ?sink:Sink.t ->
  ?on_level:(level:int -> frontier:int -> stats -> unit) ->
  ?frontier_log:(level:int -> State.t list -> unit) ->
  ?cancel:Cancel.t -> ?checkpoint:string * float -> ?resume:resume_state ->
  ?restrict:bool -> ?max_depth:int ->
  n:int -> unit -> layer outcome
(** [optimal_depth ~n ()] certifies the exact minimal depth of a
    sorting network on [n] wires (for [Sorted], [depth] is optimal and
    [moves] a witness). [max_depth] defaults to [n], an upper bound by
    odd-even transposition sort. *)

val witness_network : n:int -> layer list -> Network.t
(** The witness as a circuit-model network, one level per layer. *)

val verify_witness : n:int -> layer list -> bool
(** Checks a witness on all [2^n] zero-one inputs through the compiled
    engine ({!Cache} + {!Bitslice}) — independent of the searcher's
    own state arithmetic. *)
