(** Subsumption between search states under channel permutation
    (Bundala–Závodný), with the cheap necessary-condition filters of
    Frăsinaru–Răschip applied before any permutation is attempted.

    State [A] {e subsumes} state [B] when some wire permutation [pi]
    satisfies [pi(A) ⊆ B]: any comparator suffix that completes [B] to
    a sorting network, conjugated by [pi], completes [A] in the same
    number of layers, so [B] may be dropped from a frontier that keeps
    [A] without losing any depth-optimal network. (Conjugation can
    reverse comparators; by Knuth's untangling argument — exercise
    5.3.4.16 — a generalized network rewrites to a standard one of the
    same depth, so depth conclusions are unaffected.)

    The permutation search is a backtracking match over channels,
    gated by three filters, each necessary for [pi(A) ⊆ B] because
    [pi] maps the vectors of [A] {e injectively} into [B] preserving
    ones-count (the "level" of a vector):

    - cardinality: [|A| <= |B|];
    - per-level cardinality: [|A_k| <= |B_k|] for every level [k];
    - channel histograms: channel [c] of [A] may map to [c'] of [B]
      only if, at every level [k], [A_k] has no more vectors with bit
      [c] set (resp. clear) than [B_k] has with bit [c'] set (resp.
      clear). *)

type fingerprint = {
  card : int;  (** number of vectors *)
  level_card : int array;  (** index [k]: vectors with [k] ones *)
  chan_ones : int array array;
      (** [chan_ones.(c).(k)]: vectors with [k] ones and bit [c] set *)
}

val fingerprint : State.t -> fingerprint
(** One pass over the state; cost [O(card * n)]. Frontier entries cache
    this so repeated subsumption tests pay it once. *)

val level_cards_le : fingerprint -> fingerprint -> bool
(** The per-level cardinality filter: [|A_k| <= |B_k|] for all [k]. *)

val channel_candidates : fingerprint -> fingerprint -> int list array
(** [channel_candidates fa fb] lists, per channel [c] of [A], the
    channels of [B] that pass the histogram filter. An empty list for
    any channel refutes subsumption without a permutation search. *)

val subsumes : State.t * fingerprint -> State.t * fingerprint -> bool
(** [subsumes (a, fa) (b, fb)] decides whether [a] subsumes [b]: it is
    [Option.is_some (subsumes_perm (a, fa) (b, fb))]. The
    identity-permutation case ([subset a b]) is tested first, then the
    filters, then the backtracking match (channels ordered by fewest
    candidates, final subset check over the vectors of [a]). This is
    the plain specification [Arena.subsumes] is tested against.
    @raise Invalid_argument if the states have different widths. *)

val subsumes_states : State.t -> State.t -> bool
(** [subsumes] computing both fingerprints on the fly (tests, one-off
    queries). *)

val subsumes_perm :
  State.t * fingerprint -> State.t * fingerprint -> int array option
(** Like {!subsumes}, but returns the witnessing permutation as an
    image array ([pi.(c)] is where channel [c] lands), so certificate
    emitters can cite it; [Some] of the identity when [subset a b]
    short-circuits. @raise Invalid_argument on width mismatch. *)

(** {1 Canonical wire-permutation form}

    Two networks are {e isomorphic} here when some wire permutation
    [pi] carries the 0-1 reachable set of one onto the other's — the
    same relabeling equivalence the subsumption filters exploit, on
    whole networks. The canonical form picks a distinguished image of
    the reachable set: channels are classed by their per-level ones
    histograms (permutation-covariant, so the classing is
    isomorphism-invariant) and the lexicographically smallest image
    over class-respecting permutations wins. Equal canonical forms
    always imply isomorphism (the form is an image under a concrete
    permutation); the converse holds whenever the class-factorial
    enumeration fits the internal cap, which covers every network
    whose channels are even mildly distinguishable — beyond the cap
    the form degrades deterministically to a fixed class-ordered
    image, losing sharing but never soundness. The verification
    service keys its response cache on this form so isomorphic
    submissions hit one entry. *)

val canonical_masks : State.t -> int array
(** The canonical image of the state's mask set, sorted ascending. *)

val canonical_key : Network.t -> string
(** Exact canonical cache key: width plus the canonical mask list of
    the network's 0-1 reachable set (computed by a bit-sliced sweep of
    all [2^wires] inputs). Keys are equal exactly when the canonical
    forms are — no hash collisions.
    @raise Invalid_argument unless [2 <= wires <= 16]. *)

val canonical_hash : Network.t -> int64
(** [canonical_key] folded through a SplitMix64 avalanche into 64
    bits: isomorphic networks always collide; distinct canonical forms
    collide only with ordinary 64-bit hash probability.
    @raise Invalid_argument unless [2 <= wires <= 16]. *)
