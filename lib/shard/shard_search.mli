(** Process-sharded exact-depth search.

    Runs {!Driver.run} with each level's frontier expansion partitioned
    into [shards] contiguous slices, every slice expanded in a forked
    worker under the {!Shard} supervisor by the driver's own per-entry
    step ({!Driver.expand_entries}, on a worker-local arena). The
    coordinator is {!Driver.run} itself: it charges the budget, counts,
    dedups and subsumes the workers' children in global entry order,
    in the same store and by the same code as an in-process level. So
    the outcome, witness, and every decision statistic ([nodes] /
    [pruned] / [deduped] / [subsumed] / [redundant] / [frontier_sizes]
    / [completed_levels]) are identical to [Driver.run] on the same
    system, even when every worker attempt is killed, stalled, or
    corrupted once ({!Fault} ["kill-worker"] / ["stall-worker"] /
    ["corrupt-result"]: the supervisor retries and a slice's expansion
    is a pure function of its entries).

    Known divergences from an in-process run, by design: workers
    expand their whole slice even when an earlier entry trips the node
    budget (the coordinator discards the excess, so only wasted work —
    never a different decision), [budget.max_seconds] is read by the
    coordinator while it replays a level rather than while workers
    expand it, and [stats.elapsed_cpu] covers the coordinator only.

    Why processes rather than domains: forked workers own a private
    heap and GC and die independently — a crash, stall, or OOM in one
    slice costs one retried unit, not the run. On multi-core hosts the
    slices also parallelise without sharing a runtime; on a single
    core the supervisor adds only a few ms per level. *)

val run :
  ?sink:Sink.t ->
  ?cancel:Cancel.t ->
  ?budget:Driver.budget ->
  ?config:Shard.config ->
  shards:int ->
  dir:string ->
  max_depth:int ->
  'm Driver.system ->
  ('m Driver.outcome, string) result
(** [run ~shards ~dir ~max_depth sys] searches like
    [Driver.run ~max_depth sys] with per-level expansion fanned out
    over [shards] worker processes ([config] defaults to
    [Shard.default_config ~dir] with [workers = shards]; a [config]
    argument's [workers] field is overridden by [shards], its [dir] by
    [dir]). Slices and results cross the process boundary as
    {!Checkpoint} envelopes holding arena rows and move indices, so
    any move type works. [Error] when the supervisor quarantines a
    poison slice after [config.max_attempts] failed attempts or a bad result.
    @raise Invalid_argument unless [shards >= 1]. *)
