(** GC-free packed-state arena for the exact search.

    Every state the BFS ever sees is one flat row of int64 Bigarray
    words (64 reachable masks per word), with the scalars the
    subsumption filters scan — cardinality, row hash and the packed
    filter signatures — in parallel int arrays: a
    struct-of-arrays layout the hot loops walk without chasing boxed
    [State.t] or fingerprint records. Dedup is open addressing over an
    xxhash64-style row hash (linear probing, power-of-two table,
    resized at load factor 1/2), so the frontier never allocates boxed
    keys. A search move ({!stage}: wire permutation, comparators, wire
    swaps) applies to a whole row as a butterfly of masked word shifts
    — O(row words) per comparator instead of a loop over every
    reachable mask.

    Mutation protocol: build a child into the single {e staging row}
    with {!stage_state} or {!stage_child}, interrogate it
    ({!staged_is_sorted}), then {!commit} it — which either dedups it
    against every row ever committed or freezes it as the next index.
    Committed rows are immutable and indices are stable for the arena's
    lifetime.

    An arena (and its staging row and subsumption scratch) is
    single-domain: confine each instance to one domain. *)

type t

val create : ?with_sigs:bool -> n:int -> unit -> t
(** An empty arena for [n]-wire states ([2 <= n <= 16]; rows are [2^n]
    bits). [with_sigs] (default true) additionally builds the byte
    tables and computes, at commit time, what {!subsumes} needs: the
    packed SWAR count signatures and the per-channel implication
    masks, in one pass over the row's bytes. Signatures need
    [n <= 10]; pass [false] for equality-dedup-only runs, which skip
    that work and take any [n]. Creation is cheap either way: storage
    starts small and doubles on demand.
    @raise Invalid_argument if [n] is out of range, or [with_sigs] and
    [n > 10]. *)

val n : t -> int

val length : t -> int
(** Number of committed states; valid indices are [0 .. length - 1]. *)

val stage_state : t -> State.t -> unit
(** Pack an explicit state into the staging row. *)

type stage = {
  perm : int array option;
      (** applied first: the content of wire [c] moves to wire
          [perm.(c)] (a permutation of [0 .. n - 1]) *)
  cmps : (int * int) list;
      (** then ascending comparators [(i, j)], [i < j], pairwise
          disjoint: the minimum goes to wire [i] *)
  swaps : (int * int) list;
      (** then unconditional exchanges of wires [i] and [j], pairwise
          disjoint *)
}
(** One search move, in the signed one-line notation of a conditional
    permutation: a comparator layer is [{ perm = None; cmps; swaps =
    [] }]; a shuffle-based register stage is the shuffle as [perm]
    followed by its op vector ([+] a comparator, [-] a comparator then a
    swap, [1] a swap, [0] nothing). *)

val comparators : (int * int) list -> stage
(** The stage of a plain comparator layer. *)

val stage_child : t -> parent:int -> stage -> unit
(** [stage_child t ~parent st] writes into the staging row the image of
    committed row [parent] under [st] — the arena-native
    [State.apply_comparators] (and, with a permutation or swaps,
    [State.map_masks]). Every phase is a word-parallel butterfly on the
    row. *)

val staged_is_sorted : t -> bool
(** Whether the staging row's reachable set contains only the [n + 1]
    sorted 0-1 vectors — the "witness found" test, before commit. *)

val commit : t -> [ `Fresh of int | `Dup of int ]
(** Dedup-insert the staging row: [`Dup idx] if a row with identical
    words was already committed (the staging row is simply abandoned),
    else [`Fresh idx] freezing it at the next index (and computing its
    signatures, when enabled). *)

val staged_state : t -> State.t
(** Unpack the staging row (allocating) without committing it — for
    [State.t]-typed prune hooks that must see a child {e before} it
    enters the dedup memory. *)

val truncate : t -> int -> unit
(** [truncate t len] drops every row committed after the first [len]
    (indices [>= len] become invalid; the dedup table is rebuilt).
    How an interrupted run discards an in-flight level's commits so a
    checkpoint cut at the previous boundary stays consistent. *)

val card : t -> int -> int
(** Reachable-set cardinality of a committed row (precomputed). *)

val to_state : t -> int -> State.t
(** Unpack a committed row (allocating) — the bridge to the
    [State.t]-typed prune/redundancy hooks and frontier logs. *)

(** {1 Row codec}

    How rows leave an arena. A {e row block} (version 1) is a 12-byte
    header — version, [n], row count, each a little-endian u32 — then
    each row's [max 1 (2^n / 64)] words as little-endian int64s, bit
    [m mod 64] of word [m / 64] set iff mask [m] is reachable. *)

val encode_rows : t -> Buffer.t -> int list -> unit
(** Append the block of the given committed rows, in list order.
    @raise Invalid_argument if an index is not committed. *)

val decode_rows :
  t -> string -> pos:int -> (int -> unit) -> (int, string) result
(** [decode_rows t s ~pos f] stages each row [k] of the block at [pos]
    in turn and calls [f k] (which typically {!commit}s it); returns the
    offset past the block. [Error], never an exception, for a wrong
    version or [n] or a short block (before staging anything), or a row
    with masks at [2^n] or above (stopping there). *)

val subsumes : t -> int -> int -> bool
(** [subsumes t a b] is boolean-identical to
    [Subsume.subsumes (to_state t a, _) (to_state t b, _)]: does some
    wire permutation carry row [a]'s reachable set into a subset of row
    [b]'s? The card / level / per-channel filters run as field-wise
    comparisons on the packed signatures (one subtract-and-mask per
    signature word) and candidate channel images are bitmasks. The
    allocation-free permutation match then forward-checks every
    assignment [c -> c'] against the implication masks — if every mask
    of [b] with channel [x'] has [c'], every mask of [a] with [x] must
    have [c], for each pair still unassigned — a necessary condition
    for [pi(a) ⊆ b], so a branch dies before any image test. Each
    complete assignment ends in one word-parallel image-inclusion
    test. Requires the arena to have been created with signatures. *)

type filters = {
  counts : Subsume.fingerprint;
      (** the level and per-channel ones signatures, decoded ([card]
          is the row's cardinality) *)
  zeros : int array array;
      (** [zeros.(c).(k)]: the zeros signature of channel [c] at level
          [k] *)
  implied : int array;
      (** [implied.(c)]: the AND of the row's masks with bit [c] set
          (all [n] bits when none has it) *)
}
(** What {!subsumes} reads of one row, unpacked. *)

val filters : t -> int -> filters
(** Decode the packed signatures and implication masks of a committed
    row — for checking them against {!Subsume.fingerprint} and a
    brute-force AND.
    @raise Invalid_argument if the arena has no signatures. *)

val record_metrics : t -> unit
(** Flush the arena's local counters into the global {!Metrics}
    registry ([arena.probes], [arena.collisions], [arena.resizes],
    [arena.bytes]; [arena.states] / [arena.dups] are bumped live at
    commit) — call once per run, not per operation. *)
