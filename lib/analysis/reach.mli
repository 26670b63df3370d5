(** Exact 0-1 reachable-set abstract domain.

    The abstract value attached to a network prefix on [n] wires is the
    {e set of 0-1 wire vectors} reachable at that point: start from all
    [2^n] vectors (the 0-1 principle reduces sortedness to these) and
    push the set through each permutation and gate. Because the set is
    tracked exactly, every verdict derived from it is both sound and
    complete on 0-1 inputs:

    - the prefix sorts all 0-1 inputs iff every member of the final set
      is sorted — by the 0-1 principle this proves or refutes
      sortedness of the whole network without evaluating it;
    - a comparator is {e dead} (exchanges nothing, hence removable
      without changing the function) iff no reachable vector has a 1 on
      its [lo] wire and a 0 on its [hi] wire;
    - a comparator is {e redundant} (its two wires provably carry equal
      bits, hence its orientation is immaterial) iff every reachable
      vector agrees on its two wires. Redundant implies dead.

    A vector is encoded as an [int] mask with bit [w] = the bit on wire
    [w]; a mask is sorted when its ones occupy the highest-indexed
    wires. Sets are byte tables indexed by mask, so the domain is
    practical up to {!max_wires} wires ([2^16] entries); the analyzer
    falls back to the approximate {!Bounds} domain beyond its
    configured cutoff. *)

type t

val max_wires : int
(** 16 — table size caps the domain, the analyzer's default exact
    cutoff is lower (12). *)

val n : t -> int

val all : int -> t
(** [all n] is the full set of [2^n] vectors — the abstract value at
    the network's input. @raise Invalid_argument unless
    [1 <= n <= max_wires]. *)

val mem : t -> int -> bool
val cardinal : t -> int
val iter : (int -> unit) -> t -> unit
(** Masks in increasing order. *)

val apply_gate : t -> Gate.t -> t
(** Transfer function of one gate: a [Compare {lo; hi}] sends a vector
    with (1 on [lo], 0 on [hi]) to the exchanged vector and leaves the
    rest alone; an [Exchange] swaps the two bits unconditionally. *)

val apply_perm : t -> Perm.t -> t
(** Bit [Perm.apply p w] of the image = bit [w] of the source,
    matching [Perm.permute_array] on wire contents. *)

val is_sorted_mask : n:int -> int -> bool
(** Sorted = all ones on the highest wires: [m = (2^k - 1) * 2^(n-k)]
    for [k = popcount m]. *)

val find_unsorted : t -> int option
(** Smallest reachable unsorted mask, if any — the witness input for a
    sortedness refutation is any preimage of it; the mask itself is
    what the analyzer reports. *)

val gate_dead : t -> Gate.t -> bool
(** Exchanges count as dead only if their wires always carry equal
    bits (swapping equal bits is the identity on 0-1 vectors). *)

val gate_redundant : t -> Gate.t -> bool
