(** Exact sorting-network verification via the 0-1 principle.

    A comparator network sorts all inputs iff it sorts all [2^n]
    inputs over {0,1} (Knuth 5.3.4, cited by Section 5 of the paper).
    Checking goes through the compiled engine: the network is lowered
    once to a flat instruction stream ({!Cache} / {!Compiled}) and the
    bit-sliced executor ({!Bitslice}) evaluates 63 test inputs per
    pass — a comparator is one [(AND, OR)] word pair — so verifying
    [n = 20] is a few tens of millions of word operations instead of
    [2^20] interpretive evaluations.

    Networks may contain [pre] permutations and exchanges; both are
    folded into the instruction stream at compile time.

    All sweeps short-circuit: the first failing input stops every
    parallel chunk (a shared atomic flag), and the witness is returned,
    re-checked against {!Network.eval} before being surfaced. *)

val default_max_wires : int
(** The widest network {!verify} accepts unless [?max_wires] says
    otherwise: 26, i.e. [2^26] zero-one inputs. *)

val verify :
  ?max_wires:int -> ?domains:int -> Network.t -> (unit, int array) result
(** [verify nw] is [Ok ()] iff [nw] sorts ascending by wire index, and
    otherwise [Error input] for a 0-1 input it fails to sort — with
    [domains = 1] (the default) the smallest such input in the
    test-input order, with more domains some failing input (whichever
    chunk wins the race; the others are short-circuited). [domains]
    splits the [2^n]-input sweep across OCaml 5 domains via
    {!Par.map_ranges}.
    @raise Invalid_argument if [wires nw > max_wires] (default 26), to
    guard against accidental exponential blowups. *)

val is_sorting_network : ?max_wires:int -> ?domains:int -> Network.t -> bool
(** [verify nw = Ok ()]. *)

val failing_input : ?max_wires:int -> ?domains:int -> Network.t -> int array option
(** [failing_input nw] is [Some v] for some 0-1 input [v] that [nw]
    fails to sort, or [None] if [nw] is a sorting network. The witness
    is re-checked against {!Network.eval} before being returned. *)

val unsorted_count : ?max_wires:int -> ?domains:int -> Network.t -> int
(** Number of 0-1 inputs (out of [2^n]) that the network leaves
    unsorted — a resolution measure for partial sorters (E9). *)
