type outcome =
  | Sorter of Register_model.op array list
  | Impossible
  | Inconclusive
  | Interrupted

type minimal =
  | Minimal of int * Register_model.op array list
  | No_sorter
  | Unknown of int
  | Stopped of int

(* Masks encode one zero-one input/state: bit r = value of register r. *)

let all_op_vectors ~pairs =
  (* enumerate {+,-,0,1}^pairs; Plus first so witnesses favour dense
     comparator levels *)
  let ops_of_code code =
    Array.init pairs (fun k ->
        match (code lsr (2 * k)) land 3 with
        | 0 -> Register_model.Plus
        | 1 -> Register_model.Minus
        | 2 -> Register_model.One
        | _ -> Register_model.Zero)
  in
  List.init (1 lsl (2 * pairs)) ops_of_code

(* Necessary condition for sorting within [r] more stages: every unit
   mask's one must sit at a register whose low [d - r] bits are all
   ones (its committed high position bits must already be correct);
   dually for single-zero masks. [mem] is membership in the state's
   reachable set, so only the [2n] unit and co-unit masks are read. *)
let prunable ~n ~d ~remaining mem =
  remaining < d
  &&
  let low_mask = (1 lsl (d - remaining)) - 1 in
  let full = (1 lsl n) - 1 in
  let rec go p =
    p < n
    && ((mem (1 lsl p) && p land low_mask <> low_mask)
       || (mem (full lxor (1 lsl p)) && p land low_mask <> 0)
       || go (p + 1))
  in
  go 0

(* One stage as an arena move: the shuffle (the content of register c
   moves to register rotl c), then each pair's op — [+] the ascending
   comparator, [-] the comparator then a swap (max to the low
   register), [1] a swap, [0] nothing. *)
let stage_of ~shuffle ops =
  let cmps = ref [] and swaps = ref [] in
  for k = Array.length ops - 1 downto 0 do
    let pair = (2 * k, (2 * k) + 1) in
    match ops.(k) with
    | Register_model.Plus -> cmps := pair :: !cmps
    | Register_model.Minus ->
        cmps := pair :: !cmps;
        swaps := pair :: !swaps
    | Register_model.One -> swaps := pair :: !swaps
    | Register_model.Zero -> ()
  done;
  { Arena.perm = Some shuffle; cmps = !cmps; swaps = !swaps }

(* Channel permutations do not commute with the fixed shuffle wiring,
   so subsumption (sound for the free-layer search) is NOT sound here;
   the frontier is deduplicated by state equality only. *)
let system ~n =
  let d = Bitops.log2_exact n in
  let vectors = all_op_vectors ~pairs:(n / 2) in
  let shuffle = Array.init n (fun c -> ((c lsl 1) lor (c lsr (d - 1))) land (n - 1)) in
  { Driver.n;
    tag = "shuffle-ops";
    moves_at = (fun ~level:_ -> vectors);
    stage = stage_of ~shuffle;
    prune = (fun ~level:_ -> prunable ~n ~d);
    (* redundancy hook off: the op-vector move set is tiny (4^(n/2)
       vectors, n <= 8 in practice) and equality dedup already
       collapses the children a never-firing op would duplicate *)
    redundant_of = Driver.no_redundant;
    dedup = Driver.Equal }

let check_n ~fn n =
  if not (Bitops.is_power_of_two n) || n < 2 || n > 16 then
    invalid_arg (fn ^ ": n must be a power of two in [2,16]")

let search ~n ~depth ?budget ?domains:_ ?sink ?cancel ?checkpoint ?resume () =
  check_n ~fn:"Min_depth.search" n;
  match
    Driver.run ?budget ?sink ?cancel ?checkpoint ?resume
      ~max_depth:depth (system ~n)
  with
  | Driver.Sorted { moves; _ } -> Sorter moves
  | Driver.Unsorted _ -> Impossible
  | Driver.Inconclusive _ -> Inconclusive
  | Driver.Interrupted _ -> Interrupted

let verify_witness ~n program =
  let prog = Register_model.shuffle_program ~n program in
  Zero_one.is_sorting_network (Register_model.to_network prog)

let minimal_depth ~n ~max_depth ?budget ?sink ?cancel ?checkpoint ?resume () =
  check_n ~fn:"Min_depth.minimal_depth" n;
  match
    Driver.run ?budget ?sink ?cancel ?checkpoint ?resume ~max_depth
      (system ~n)
  with
  | Driver.Sorted { depth; moves; _ } ->
      assert (verify_witness ~n moves);
      Minimal (depth, moves)
  | Driver.Unsorted _ -> No_sorter
  | Driver.Inconclusive stats -> Unknown stats.Driver.completed_levels
  | Driver.Interrupted stats -> Stopped stats.Driver.completed_levels
