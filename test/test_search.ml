(* Tests for the exact-bounds search subsystem (lib/search): packed
   state arithmetic, subsumption with its necessary-condition filters,
   layer generation up to symmetry, and the BFS driver against both the
   known optimal depths and the subsumption-free reference search. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- State --- *)

let test_state_initial () =
  let st = State.initial ~n:4 in
  check_int "card" 16 (State.card st);
  check_bool "mem 0" true (State.mem st 0);
  check_bool "mem 15" true (State.mem st 15);
  check_bool "not sorted" false (State.is_sorted st);
  let st2 = State.initial ~n:2 in
  (* one ascending comparator sorts two wires: image {00, 01r.. } *)
  let st2' = State.apply_comparators st2 [ (0, 1) ] in
  check_int "n=2 sorted card" 3 (State.card st2');
  check_bool "n=2 sorted" true (State.is_sorted st2');
  check_bool "masks" true (State.masks st2' = [ 0b00; 0b10; 0b11 ])

let test_state_of_masks () =
  let st = State.of_masks ~n:4 [ 0b0011; 0b0101; 0b0011 ] in
  check_int "dups collapse" 2 (State.card st);
  check_bool "roundtrip" true (State.masks st = [ 0b0011; 0b0101 ]);
  let img = State.map_masks st (fun m -> m lxor 0b1111) in
  check_bool "map" true (State.masks img = [ 0b1010; 0b1100 ]);
  check_bool "subset" true
    (State.subset st (State.of_masks ~n:4 [ 0b0011; 0b0101; 0b1000 ]));
  check_bool "not subset" false
    (State.subset st (State.of_masks ~n:4 [ 0b0011 ]));
  check_bool "equal" true (State.equal st (State.of_masks ~n:4 [ 0b0101; 0b0011 ]));
  check_bool "invalid mask rejected" true
    (match State.of_masks ~n:4 [ 16 ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_state_subset_short_circuit () =
  (* n=7 states span multiple packed words; a violation found in the
     first word must answer false through the early-exit path even
     though every later word is a subset *)
  let n = 7 in
  let a = State.of_masks ~n [ 1; 100; 120 ] in
  let b = State.of_masks ~n [ 2; 100; 120 ] in
  check_bool "violation in word 0" false (State.subset a b);
  check_bool "reflexive" true (State.subset a a);
  check_bool "subset of full" true (State.subset a (State.initial ~n));
  check_bool "full not subset" false (State.subset (State.initial ~n) a);
  (* violation only in the last word: the scan must still find it *)
  let c = State.of_masks ~n [ 1; 100 ] in
  let d = State.of_masks ~n [ 1; 100; 127 ] in
  check_bool "late extra mask" false (State.subset d c)

let test_state_sorted_recognition () =
  (* exactly the n+1 sorted vectors: ones packed at the high wires *)
  let n = 5 in
  let sorted = List.init (n + 1) (fun k -> ((1 lsl k) - 1) lsl (n - k)) in
  check_bool "sorted set" true (State.is_sorted (State.of_masks ~n sorted));
  check_bool "unsorted vector" false
    (State.is_sorted (State.of_masks ~n (0b00001 :: sorted)))

(* --- Subsume --- *)

let st4 = State.of_masks ~n:4

let test_subsume_permuted_positive () =
  (* {0011} maps to {0101} by the wire swap 1 <-> 2 *)
  let a = st4 [ 0b0011 ] and b = st4 [ 0b0101 ] in
  check_bool "a subsumes b" true (Subsume.subsumes_states a b);
  check_bool "b subsumes a" true (Subsume.subsumes_states b a);
  (* plain subset: identity permutation fast path *)
  check_bool "subset path" true
    (Subsume.subsumes_states (st4 [ 0b0011 ]) (st4 [ 0b0011; 0b1000 ]))

let test_subsume_card_filter () =
  let a = st4 [ 0b0001; 0b0010 ] and b = st4 [ 0b0001 ] in
  check_bool "larger cannot subsume" false (Subsume.subsumes_states a b)

let test_subsume_level_filter () =
  (* equal cardinality but level profiles differ: (1,2) vs (1,1) ones *)
  let a = st4 [ 0b0001; 0b0011 ] and b = st4 [ 0b0001; 0b0010 ] in
  let fa = Subsume.fingerprint a and fb = Subsume.fingerprint b in
  check_bool "level filter refutes" false (Subsume.level_cards_le fa fb);
  check_bool "subsumes agrees" false (Subsume.subsumes (a, fa) (b, fb))

let test_subsume_channel_filter () =
  (* same level profile (two level-2 vectors) but A's wire 0 lies in
     both vectors and no wire of B does: candidate list comes back
     empty before any permutation search *)
  let a = st4 [ 0b0011; 0b0101 ] and b = st4 [ 0b0011; 0b1100 ] in
  let fa = Subsume.fingerprint a and fb = Subsume.fingerprint b in
  check_bool "wire 0 has no candidate" true
    ((Subsume.channel_candidates fa fb).(0) = []);
  check_bool "subsumes agrees" false (Subsume.subsumes (a, fa) (b, fb))

let test_subsume_backtracking_negative () =
  (* level-2 vectors are graph edges; a 6-cycle and two triangles have
     identical degree histograms (every filter passes) yet are not
     isomorphic, so only the exhaustive matching refutes this one *)
  let c6 =
    State.of_masks ~n:6
      [ 0b000011; 0b000110; 0b001100; 0b011000; 0b110000; 0b100001 ]
  and triangles =
    State.of_masks ~n:6
      [ 0b000011; 0b000110; 0b000101; 0b011000; 0b110000; 0b101000 ]
  in
  let fa = Subsume.fingerprint c6 and fb = Subsume.fingerprint triangles in
  check_bool "every wire keeps candidates" true
    (Array.for_all (fun l -> l <> []) (Subsume.channel_candidates fa fb));
  check_bool "C6 !~ 2xC3" false (Subsume.subsumes (c6, fa) (triangles, fb));
  check_bool "2xC3 !~ C6" false (Subsume.subsumes (triangles, fb) (c6, fa))

let test_subsume_permutation_property =
  QCheck.Test.make ~name:"any permuted image subsumes both ways" ~count:200
    QCheck.(pair (int_range 3 6) int)
    (fun (n, seed) ->
      let rng = Xoshiro.of_seed seed in
      let pi = Perm.random rng n in
      let nmasks = 1 + Xoshiro.int rng ~bound:10 in
      let masks = List.init nmasks (fun _ -> Xoshiro.int rng ~bound:(1 lsl n)) in
      let image m =
        List.fold_left
          (fun acc w -> if (m lsr w) land 1 = 1 then acc lor (1 lsl Perm.apply pi w) else acc)
          0
          (List.init n Fun.id)
      in
      let a = State.of_masks ~n masks in
      let b = State.of_masks ~n (List.map image masks) in
      Subsume.subsumes_states a b && Subsume.subsumes_states b a)

(* --- Layers --- *)

let test_layer_counts () =
  List.iter
    (fun (n, all, second) ->
      check_int (Printf.sprintf "n=%d all" n) all (List.length (Layers.all ~n));
      check_int (Printf.sprintf "n=%d second" n) second
        (List.length (Layers.second ~n)))
    [ (4, 9, 4); (5, 25, 7); (6, 75, 9); (7, 231, 17); (8, 763, 19);
      (9, 2619, 37); (10, 9495, 35) ];
  check_bool "first n=5" true (Layers.first ~n:5 = [ (0, 1); (2, 3) ]);
  List.iter
    (fun layer ->
      check_bool "second is a matching from all" true
        (List.mem layer (Layers.all ~n:6)))
    (Layers.second ~n:6)

(* The brute-force second layer [Layers.second] replaced: every element
   of the first layer's stabiliser (pair permutations times in-pair
   flips, as channel maps) applied to every layer, keeping the layers
   that are their own lexicographically least image. Quadratic in
   practice: ~9 s at n=10, so only run up to n=9. *)
let stabiliser_oracle ~n =
  let k = n / 2 in
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) xs)))
          xs
  in
  List.concat_map
    (fun sigma ->
      let sigma = Array.of_list sigma in
      List.init (1 lsl k) (fun flips ->
          Array.init n (fun c ->
              if c >= 2 * k then c
              else
                let p = c / 2 and b = c land 1 in
                (2 * sigma.(p)) + (b lxor ((flips lsr p) land 1)))))
    (perms (List.init k Fun.id))

let image g layer =
  List.sort compare
    (List.map
       (fun (i, j) ->
         let i' = g.(i) and j' = g.(j) in
         (min i' j', max i' j'))
       layer)

let second_oracle ~n =
  let group = stabiliser_oracle ~n in
  let canonical layer =
    List.fold_left
      (fun best g ->
        let img = image g layer in
        if compare img best < 0 then img else best)
      layer group
  in
  List.filter (fun l -> canonical l = l) (Layers.all ~n)

let test_second_oracle () =
  for n = 2 to 9 do
    check_bool
      (Printf.sprintf "n=%d: same layers, same order as the oracle" n)
      true
      (Layers.second ~n = second_oracle ~n)
  done

let test_second_golden_n10 () =
  Golden.check "second-n10.txt" "n=10"
    (String.concat "\n" (List.map Golden.pp_layer (Layers.second ~n:10)))

let test_second_partition () =
  (* every layer is a stabiliser image of exactly one representative:
     the orbits of [second] partition [all] *)
  for n = 2 to 8 do
    let all = Layers.all ~n and group = stabiliser_oracle ~n in
    let orbits =
      List.map
        (fun rep ->
          let orbit = Hashtbl.create 64 in
          List.iter (fun g -> Hashtbl.replace orbit (image g rep) ()) group;
          orbit)
        (Layers.second ~n)
    in
    let size = List.fold_left (fun acc o -> acc + Hashtbl.length o) 0 orbits in
    check_int (Printf.sprintf "n=%d: orbit sizes sum to |all|" n)
      (List.length all) size;
    List.iter
      (fun layer ->
        check_int
          (Printf.sprintf "n=%d: %s in exactly one orbit" n (Golden.pp_layer layer))
          1
          (List.length (List.filter (fun o -> Hashtbl.mem o layer) orbits)))
      all
  done

(* --- Driver --- *)

let optimal n =
  match Driver.optimal_depth ~n () with
  | Driver.Sorted { depth; moves; stats } -> (depth, moves, stats)
  | Driver.Unsorted _ | Driver.Inconclusive _ | Driver.Interrupted _ ->
      Alcotest.failf "n=%d: search did not return a witness" n

let test_known_optimal_depths () =
  List.iter
    (fun (n, want) ->
      let depth, moves, _ = optimal n in
      check_int (Printf.sprintf "n=%d optimal" n) want depth;
      check_int "witness length" want (List.length moves);
      check_bool "witness verifies" true (Driver.verify_witness ~n moves);
      check_int "network depth" want
        (Network.depth (Driver.witness_network ~n moves)))
    [ (2, 1); (3, 3); (4, 3); (5, 5); (6, 5) ]

let test_reference_agreement () =
  (* the subsumption-pruned search agrees with the equality-dedup
     reference, and at n=6 expands over 10x fewer nodes *)
  List.iter
    (fun n ->
      let depth, _, stats = optimal n in
      match Driver.optimal_depth ~restrict:false ~n () with
      | Driver.Sorted { depth = ref_depth; stats = ref_stats; _ } ->
          check_int (Printf.sprintf "n=%d reference depth" n) depth ref_depth;
          if n = 6 then
            check_bool
              (Printf.sprintf "pruning ratio %d/%d >= 10" ref_stats.Driver.nodes
                 stats.Driver.nodes)
              true
              (ref_stats.Driver.nodes >= 10 * stats.Driver.nodes)
      | Driver.Unsorted _ | Driver.Inconclusive _ | Driver.Interrupted _ ->
          Alcotest.failf "n=%d: reference search failed" n)
    [ 2; 3; 4; 5; 6 ]

let test_redundant_hook_agreement () =
  (* the static-analysis move filter must not change any verdict: the
     same system with the hook disabled finds the same optimal depth,
     and the hook actually fires (skips are counted, never as nodes) *)
  List.iter
    (fun n ->
      let sys = Driver.network_system ~n () in
      let sys_off = { sys with Driver.redundant_of = Driver.no_redundant } in
      let depth_of = function
        | Driver.Sorted { depth; stats; _ } -> (depth, stats)
        | Driver.Unsorted _ | Driver.Inconclusive _ | Driver.Interrupted _ ->
            Alcotest.failf "n=%d: search failed" n
      in
      let d_on, s_on = depth_of (Driver.run ~max_depth:n sys) in
      let d_off, s_off = depth_of (Driver.run ~max_depth:n sys_off) in
      check_int (Printf.sprintf "n=%d depth, hook on vs off" n) d_off d_on;
      check_int (Printf.sprintf "n=%d hook-off skips nothing" n) 0
        s_off.Driver.redundant;
      if n >= 5 then
        check_bool (Printf.sprintf "n=%d hook fires" n) true
          (s_on.Driver.redundant > 0);
      (* skipped moves are not applications: with the hook on, the
         search can only expand fewer or equal nodes *)
      check_bool (Printf.sprintf "n=%d hook never adds nodes" n) true
        (s_on.Driver.nodes <= s_off.Driver.nodes))
    [ 3; 4; 5; 6 ]

let test_unsorted_exhaustive () =
  match Driver.optimal_depth ~max_depth:4 ~n:5 () with
  | Driver.Unsorted stats ->
      check_int "all 4 levels completed" 4 stats.Driver.completed_levels
  | Driver.Sorted _ -> Alcotest.fail "no depth-4 network sorts n=5"
  | Driver.Inconclusive _ | Driver.Interrupted _ ->
      Alcotest.fail "must be decidable"

let test_budget_inconclusive () =
  match
    Driver.optimal_depth ~budget:{ Driver.max_nodes = 100; max_seconds = None }
      ~n:6 ()
  with
  | Driver.Inconclusive stats ->
      check_bool "some levels refuted" true (stats.Driver.completed_levels >= 1);
      check_bool "stopped early" true (stats.Driver.completed_levels < 5)
  | Driver.Sorted _ | Driver.Unsorted _ | Driver.Interrupted _ ->
      Alcotest.fail "100 nodes cannot certify n=6"

let test_wall_clock_budget () =
  (* the n=7 reference search needs minutes, so a 0.3 s wall budget
     must trip it — after roughly the same wall time whether 1 or 4
     domains expand.  The old CPU-summed budget (Sys.time across
     domains) tripped the 4-domain run ~4x early, well under the
     lower bound asserted here. *)
  let budget = { Driver.max_nodes = 1_000_000_000; max_seconds = Some 0.3 } in
  let run _domains =
    let t0 = Clock.wall () in
    let outcome =
      Driver.optimal_depth ~budget ~restrict:false ~n:7 ()
    in
    let wall = Clock.wall () -. t0 in
    match outcome with
    | Driver.Inconclusive stats -> (wall, stats)
    | Driver.Sorted _ | Driver.Unsorted _ | Driver.Interrupted _ ->
        Alcotest.fail "0.3 s cannot decide the n=7 reference search"
  in
  let wall1, stats1 = run 1 in
  let wall4, stats4 = run 4 in
  List.iter
    (fun (domains, wall, stats) ->
      check_bool
        (Printf.sprintf "domains=%d ran up to the budget (%.3f s)" domains wall)
        true (wall > 0.25);
      check_bool
        (Printf.sprintf "domains=%d stopped within 2x the budget (%.3f s)"
           domains wall)
        true (wall < 0.6);
      check_bool "stats.elapsed is wall-clock" true
        (stats.Driver.elapsed <= wall +. 0.05);
      check_bool "cpu elapsed also reported" true
        (stats.Driver.elapsed_cpu >= 0.))
    [ (1, wall1, stats1); (4, wall4, stats4) ];
  check_bool "equal wall budgets complete comparable levels" true
    (abs (stats4.Driver.completed_levels - stats1.Driver.completed_levels) <= 1)

let test_multi_domain_agreement () =
  (* same optimum through the parallel expansion / filter path *)
  match Driver.optimal_depth ~n:5 () with
  | Driver.Sorted { depth; moves; _ } ->
      check_int "n=5 at 2 domains" 5 depth;
      check_bool "witness verifies" true (Driver.verify_witness ~n:5 moves)
  | Driver.Unsorted _ | Driver.Inconclusive _ | Driver.Interrupted _ ->
      Alcotest.fail "n=5 must be certified at 2 domains"

(* --- canonical wire-permutation form --- *)

let permute_mask pi m =
  let img = ref 0 in
  for c = 0 to Array.length pi - 1 do
    if (m lsr c) land 1 = 1 then img := !img lor (1 lsl pi.(c))
  done;
  !img

let conjugate p nw =
  let levels =
    List.map
      (fun lvl ->
        { Network.pre = None;
          gates = List.map (Gate.map_wires (Perm.apply p)) lvl.Network.gates })
      (Network.levels nw)
  in
  Network.create ~wires:(Network.wires nw) levels

let reachable_masks nw =
  let n = Network.wires nw in
  List.sort_uniq compare
    (List.init (1 lsl n) (fun m ->
         let out = Network.eval nw (Array.init n (fun w -> (m lsr w) land 1)) in
         let r = ref 0 in
         Array.iteri (fun w v -> if v = 1 then r := !r lor (1 lsl w)) out;
         !r))

let rec all_perms = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (all_perms (List.filter (( <> ) x) xs)))
        xs

let prop_canonical_masks_invariant =
  QCheck.Test.make ~name:"canonical_masks invariant under channel permutation"
    ~count:200
    QCheck.(pair (int_range 0 1_000_000) (int_range 4 6))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let card = 1 + Xoshiro.int rng ~bound:40 in
      let masks = List.init card (fun _ -> Xoshiro.int rng ~bound:(1 lsl n)) in
      let st = State.of_masks ~n masks in
      let pi = Perm.to_array (Perm.random rng n) in
      let img = State.map_masks st (permute_mask pi) in
      Subsume.canonical_masks st = Subsume.canonical_masks img)

let test_canonical_hash_isomorphic () =
  (* conjugated networks (wires relabeled end to end) must collide,
     across widths and for both random circuits and the classics *)
  let rng = Xoshiro.of_seed 7 in
  for _ = 1 to 30 do
    let n = 4 + Xoshiro.int rng ~bound:3 in
    let nlayers = 1 + Xoshiro.int rng ~bound:3 in
    let nw =
      Network.of_gate_levels ~wires:n
        (List.init nlayers (fun _ ->
             let order = Perm.to_array (Perm.random rng n) in
             let npairs = 1 + Xoshiro.int rng ~bound:(n / 2) in
             List.init npairs (fun i ->
                 Gate.compare_up order.(2 * i) order.((2 * i) + 1))))
    in
    let p = Perm.random rng n in
    check_bool "conjugate collides" true
      (Subsume.canonical_hash nw = Subsume.canonical_hash (conjugate p nw));
    check_bool "conjugate key collides" true
      (Subsume.canonical_key nw = Subsume.canonical_key (conjugate p nw))
  done;
  (* every true sorter of one width has reachable set = the thresholds,
     so all of them share a single canonical entry *)
  check_bool "all n=8 sorters share the hash" true
    (Subsume.canonical_hash (Bitonic.network ~n:8)
    = Subsume.canonical_hash (Odd_even_merge.network ~n:8))

let test_canonical_hash_exhaustive_n4 () =
  (* ground truth by brute force over all 4! wire permutations: the
     hash must collide exactly on reachable-set-isomorphic networks *)
  let n = 4 in
  let pairs =
    List.concat_map
      (fun i -> List.init (n - i - 1) (fun j -> (i, i + j + 1)))
      (List.init n Fun.id)
  in
  let nets =
    List.map (fun p -> [ [ p ] ]) pairs
    @ List.concat_map
        (fun p1 -> List.map (fun p2 -> [ [ p1 ]; [ p2 ] ]) pairs)
        pairs
  in
  let nets =
    List.map
      (fun layers ->
        Network.of_gate_levels ~wires:n
          (List.map (List.map (fun (a, b) -> Gate.compare_up a b)) layers))
      nets
  in
  let perms = List.map Array.of_list (all_perms [ 0; 1; 2; 3 ]) in
  let data =
    List.map (fun nw -> (reachable_masks nw, Subsume.canonical_hash nw)) nets
  in
  let iso ra rb =
    List.exists
      (fun pi -> List.sort compare (List.map (permute_mask pi) ra) = rb)
      perms
  in
  List.iter
    (fun (ra, ha) ->
      List.iter
        (fun (rb, hb) ->
          check_bool "hash collides exactly on isomorphs" (iso ra rb) (ha = hb))
        data)
    data

(* --- Arena: the packed frontier must be decision-identical to the
   boxed State/Subsume reference --- *)

let random_layer rng n =
  let order = Perm.to_array (Perm.random rng n) in
  let npairs = 1 + Xoshiro.int rng ~bound:(n / 2) in
  List.sort compare
    (List.init npairs (fun k ->
         let a = order.(2 * k) and b = order.((2 * k) + 1) in
         (min a b, max a b)))

(* grow a random frontier, committing every child into [arena] and
   mirroring it in a reference list of (state, arena index) pairs *)
let random_frontier rng arena n steps =
  let states = ref [] in
  Arena.stage_state arena (State.initial ~n);
  (match Arena.commit arena with
  | `Fresh idx -> states := [ (State.initial ~n, idx) ]
  | `Dup _ -> Alcotest.fail "initial state cannot be a duplicate");
  let ok = ref true in
  for _ = 1 to steps do
    let st, idx =
      List.nth !states (Xoshiro.int rng ~bound:(List.length !states))
    in
    let layer = random_layer rng n in
    let st' = State.apply_comparators st layer in
    Arena.stage_child arena ~parent:idx (Arena.comparators layer);
    ok := !ok && Arena.staged_is_sorted arena = State.is_sorted st';
    match Arena.commit arena with
    | `Fresh idx' ->
        ok := !ok && State.equal (Arena.to_state arena idx') st';
        states := (st', idx') :: !states
    | `Dup idx' -> ok := !ok && State.equal (Arena.to_state arena idx') st'
  done;
  (!ok, !states)

let prop_arena_dedup_agrees =
  QCheck.Test.make
    ~name:"arena open-addressing dedup = Hashtbl dedup (n=4..8)" ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 4 8))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let arena = Arena.create ~n () in
      let seen = Hashtbl.create 64 in
      let states = ref [ State.initial ~n ] in
      Hashtbl.replace seen (State.key (State.initial ~n)) (State.initial ~n);
      Arena.stage_state arena (State.initial ~n);
      let ok = ref (Arena.commit arena = `Fresh 0) in
      for _ = 1 to 150 do
        let st =
          List.nth !states (Xoshiro.int rng ~bound:(List.length !states))
        in
        let st' = State.apply_comparators st (random_layer rng n) in
        let key = State.key st' in
        let fresh_ref = not (Hashtbl.mem seen key) in
        Arena.stage_state arena st';
        (match Arena.commit arena with
        | `Fresh idx ->
            ok :=
              !ok && fresh_ref && State.equal (Arena.to_state arena idx) st';
            Hashtbl.replace seen key st';
            states := st' :: !states
        | `Dup idx ->
            ok :=
              !ok && (not fresh_ref)
              && State.equal (Arena.to_state arena idx) st');
        ok := !ok && Arena.length arena = Hashtbl.length seen
      done;
      (* identical survivor sets, and (spot-checked — canonical_masks
         enumerates permutations) identical canonical forms *)
      let arena_survivors =
        List.init (Arena.length arena) (fun i -> Arena.to_state arena i)
      in
      let arena_keys = List.sort compare (List.map State.key arena_survivors) in
      let ref_keys =
        List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) seen [])
      in
      !ok && arena_keys = ref_keys
      && List.for_all
           (fun st ->
             Subsume.canonical_masks st
             = Subsume.canonical_masks (Hashtbl.find seen (State.key st)))
           (List.filteri (fun i _ -> i < 3) arena_survivors))

(* a random wire permutation other than the identity *)
let random_nonidentity_perm rng n =
  let pi = Perm.to_array (Perm.random rng n) in
  if Array.for_all Fun.id (Array.mapi ( = ) pi) then begin
    pi.(0) <- 1;
    pi.(1) <- 0
  end;
  pi

let commit_any arena st =
  Arena.stage_state arena st;
  match Arena.commit arena with `Fresh i | `Dup i -> i

(* n = 9 is the widest one-word signature, n = 10 needs two words. Half
   the pairs are true subsumptions — B = pi(A) plus a few random masks
   under a non-identity pi — because random pairs mostly die in the
   count filters before the permutation match runs. *)
let prop_arena_subsumes_parity =
  QCheck.Test.make
    ~name:"Arena.subsumes = Subsume.subsumes on random frontiers (n=2..10)"
    ~count:25
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 10))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let arena = Arena.create ~n () in
      let ok, states = random_frontier rng arena n 80 in
      let arr = Array.of_list states in
      let m = Array.length arr in
      ok
      && List.for_all
           (fun k ->
             let sa, ia = arr.(Xoshiro.int rng ~bound:m) in
             if k land 1 = 0 then begin
               let pi = random_nonidentity_perm rng n in
               let extra =
                 List.init (Xoshiro.int rng ~bound:4) (fun _ ->
                     Xoshiro.int rng ~bound:(1 lsl n))
               in
               let sb =
                 State.of_masks ~n
                   (State.masks (State.map_masks sa (permute_mask pi)) @ extra)
               in
               let ib = commit_any arena sb in
               Arena.subsumes arena ia ib && Subsume.subsumes_states sa sb
             end
             else
               let sb, ib = arr.(Xoshiro.int rng ~bound:m) in
               Arena.subsumes arena ia ib = Subsume.subsumes_states sa sb)
           (List.init 250 Fun.id))

(* --- the arena's general stage against the boxed State reference --- *)

(* a random set of reachable masks *)
let random_state rng n =
  let card = 1 + Xoshiro.int rng ~bound:(min 200 (1 lsl n)) in
  State.of_masks ~n (List.init card (fun _ -> Xoshiro.int rng ~bound:(1 lsl n)))

let test_arena_sigs_width () =
  (* signatures (and so subsumption) stop at n = 10; equality-dedup
     arenas take any supported width *)
  check_bool "with_sigs n=11 rejected" true
    (match Arena.create ~n:11 () with
     | exception Invalid_argument _ -> true
     | _ -> false);
  check_int "with_sigs:false n=11" 0
    (Arena.length (Arena.create ~with_sigs:false ~n:11 ()))

(* the brute-force implication mask: the AND of the masks with bit c *)
let implied_masks st n =
  Array.init n (fun c ->
      State.fold_masks
        (fun m acc -> if (m lsr c) land 1 = 1 then acc land m else acc)
        st ((1 lsl n) - 1))

let prop_arena_filters_decode =
  QCheck.Test.make
    ~name:"Arena.filters = Subsume.fingerprint and brute-force ANDs (n=2..10)"
    ~count:100
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 10))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let arena = Arena.create ~n () in
      let _, frontier = random_frontier rng arena n 10 in
      List.for_all
        (fun st ->
          let f = Arena.filters arena (commit_any arena st) in
          let fp = Subsume.fingerprint st in
          f.Arena.counts = fp
          && f.Arena.zeros
             = Array.map
                 (Array.mapi (fun k ones -> fp.Subsume.level_card.(k) - ones))
                 fp.Subsume.chan_ones
          && f.Arena.implied = implied_masks st n)
        (List.init 10 (fun _ -> random_state rng n) @ List.map fst frontier))

let staged_image arena st stage =
  Arena.stage_state arena st;
  let parent =
    match Arena.commit arena with `Fresh i | `Dup i -> i
  in
  Arena.stage_child arena ~parent stage;
  Arena.staged_state arena

let prop_stage_comparators =
  QCheck.Test.make
    ~name:"Arena.stage_child (layer) = State.apply_comparators (n=2..10)"
    ~count:200
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 10))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let arena = Arena.create ~with_sigs:false ~n () in
      List.for_all
        (fun _ ->
          let st = random_state rng n and layer = random_layer rng n in
          State.equal
            (staged_image arena st (Arena.comparators layer))
            (State.apply_comparators st layer))
        (List.init 5 Fun.id))

(* the register model's own evaluation of one shuffle stage, mask by
   mask — independent of the arena and of the search system *)
let shuffle_reference ~n ops =
  let prog = Register_model.shuffle_program ~n [ ops ] in
  fun m ->
    let out = Register_model.eval prog (Array.init n (fun w -> (m lsr w) land 1)) in
    let r = ref 0 in
    Array.iteri (fun w v -> if v = 1 then r := !r lor (1 lsl w)) out;
    !r

let prop_stage_shuffle =
  QCheck.Test.make
    ~name:"Arena.stage_child (shuffle + ops) = State.map_masks (n=2,4,8)"
    ~count:200
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 2))
    (fun (seed, k) ->
      let n = [| 2; 4; 8 |].(k) in
      let rng = Xoshiro.of_seed seed in
      let sys = Min_depth.system ~n in
      let arena = Arena.create ~with_sigs:false ~n () in
      List.for_all
        (fun _ ->
          let st = random_state rng n and ops = Register_model.random_ops rng ~n in
          State.equal
            (staged_image arena st (sys.Driver.stage ops))
            (State.map_masks st (shuffle_reference ~n ops)))
        (List.init 5 Fun.id))

(* --- the search against the legacy engine's recorded results --- *)

let test_arena_engine_equivalence () =
  (* outcome, depth, witness and every decision counter must equal the
     legacy engine's, recorded in golden/ before it was deleted *)
  List.iter
    (fun (n, max_depth, budget) ->
      Golden.check "pruned.txt"
        (Golden.key ~n ~max_depth budget)
        (Golden.render_layers
           (Driver.run ~budget:(Golden.budget_of budget) ~max_depth
              (Driver.network_system ~n ()))))
    Golden.pruned_runs;
  List.iter
    (fun (n, max_depth, budget) ->
      Golden.check "reference.txt"
        (Golden.key ~n ~max_depth budget)
        (Golden.render_layers
           (Driver.run ~budget:(Golden.budget_of budget) ~max_depth
              (Driver.network_system ~restrict:false ~n ()))))
    Golden.reference_runs

let test_domains2_no_regression () =
  (* domains=2 at n=6 was once ~10x slower than domains=1
     (BENCH_search.json, 11.5k vs 123k nodes/s) because every tiny
     level paid domain spawns. The search is single-domain now and
     takes no domain count; this guards against a fan-out returning
     with that cliff. Min-of-3 runs each to absorb scheduler noise;
     the bound is deliberately loose (2x + 50ms). *)
  let wall _d =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      (match Driver.optimal_depth ~n:6 () with
      | Driver.Sorted { depth = 5; _ } -> ()
      | _ -> Alcotest.fail "n=6 optimum must be 5");
      best := min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let t1 = wall 1 in
  let t2 = wall 2 in
  check_bool
    (Printf.sprintf "domains=2 (%.4fs) within 2x of domains=1 (%.4fs)" t2 t1)
    true
    (t2 <= (2. *. t1) +. 0.05)

let () =
  Alcotest.run "search"
    [ ( "state",
        [ Alcotest.test_case "initial and comparators" `Quick test_state_initial;
          Alcotest.test_case "of_masks/map/subset" `Quick test_state_of_masks;
          Alcotest.test_case "sortedness" `Quick test_state_sorted_recognition;
          Alcotest.test_case "subset short-circuits" `Quick
            test_state_subset_short_circuit ] );
      ( "subsume",
        [ Alcotest.test_case "permuted positive" `Quick test_subsume_permuted_positive;
          Alcotest.test_case "cardinality filter" `Quick test_subsume_card_filter;
          Alcotest.test_case "level filter" `Quick test_subsume_level_filter;
          Alcotest.test_case "channel filter" `Quick test_subsume_channel_filter;
          Alcotest.test_case "backtracking negative" `Quick
            test_subsume_backtracking_negative;
          QCheck_alcotest.to_alcotest test_subsume_permutation_property ] );
      ( "canonical",
        [ QCheck_alcotest.to_alcotest prop_canonical_masks_invariant;
          Alcotest.test_case "isomorphic networks collide" `Quick
            test_canonical_hash_isomorphic;
          Alcotest.test_case "n=4 exhaustive: collide iff isomorphic" `Quick
            test_canonical_hash_exhaustive_n4 ] );
      ( "layers",
        [ Alcotest.test_case "counts" `Quick test_layer_counts;
          Alcotest.test_case "second = brute-force oracle, n<=9" `Quick
            test_second_oracle;
          Alcotest.test_case "second n=10 = golden" `Quick test_second_golden_n10;
          Alcotest.test_case "second orbits partition all, n<=8" `Quick
            test_second_partition ] );
      ( "arena",
        [ QCheck_alcotest.to_alcotest prop_arena_dedup_agrees;
          QCheck_alcotest.to_alcotest prop_arena_subsumes_parity;
          QCheck_alcotest.to_alcotest prop_stage_comparators;
          QCheck_alcotest.to_alcotest prop_stage_shuffle;
          Alcotest.test_case "search = legacy golden files" `Quick
            test_arena_engine_equivalence;
          QCheck_alcotest.to_alcotest prop_arena_filters_decode;
          Alcotest.test_case "signatures need n <= 10" `Quick
            test_arena_sigs_width ] );
      ( "driver",
        [ Alcotest.test_case "known optima n<=6" `Quick test_known_optimal_depths;
          Alcotest.test_case "reference agreement + 10x pruning" `Quick
            test_reference_agreement;
          Alcotest.test_case "redundant hook on/off agreement" `Quick
            test_redundant_hook_agreement;
          Alcotest.test_case "exhaustive refutation" `Quick test_unsorted_exhaustive;
          Alcotest.test_case "budget inconclusive" `Quick test_budget_inconclusive;
          Alcotest.test_case "wall-clock time budget" `Quick
            test_wall_clock_budget;
          Alcotest.test_case "two domains agree" `Quick test_multi_domain_agreement;
          Alcotest.test_case "domains=2 within 2x of domains=1 at n=6" `Quick
            test_domains2_no_regression ] ) ]
