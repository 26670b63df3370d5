(* Tests for the minimal-depth search (Section 6 / Knuth 5.3.4.47),
   now a shuffle-restricted instantiation of the generic driver. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let budget max_nodes = { Driver.max_nodes; max_seconds = None }

let test_n2 () =
  match Min_depth.minimal_depth ~n:2 ~max_depth:2 () with
  | Min_depth.Minimal (1, prog) ->
      check_bool "verified" true (Min_depth.verify_witness ~n:2 prog)
  | Min_depth.Minimal (d, _) -> Alcotest.failf "n=2 minimal depth %d, want 1" d
  | Min_depth.No_sorter -> Alcotest.fail "n=2 must have a 1-stage sorter"
  | Min_depth.Unknown _ | Min_depth.Stopped _ -> Alcotest.fail "n=2 must be decidable"

let test_n4_exact () =
  (match Min_depth.search ~n:4 ~depth:2 () with
  | Min_depth.Impossible -> ()
  | Min_depth.Sorter _ -> Alcotest.fail "no 2-stage sorter exists for n=4"
  | Min_depth.Inconclusive | Min_depth.Interrupted -> Alcotest.fail "n=4 depth 2 must be decidable");
  match Min_depth.minimal_depth ~n:4 ~max_depth:4 () with
  | Min_depth.Minimal (3, prog) ->
      check_bool "verified" true (Min_depth.verify_witness ~n:4 prog);
      check_int "matches bitonic" (Bitonic.depth_formula ~n:4) 3
  | Min_depth.Minimal (d, _) -> Alcotest.failf "n=4 minimal depth %d, want 3" d
  | Min_depth.No_sorter -> Alcotest.fail "bitonic is a 3-stage witness"
  | Min_depth.Unknown _ | Min_depth.Stopped _ -> Alcotest.fail "n=4 must be decidable"

let test_n8_depth3_impossible () =
  match Min_depth.search ~n:8 ~depth:3 () with
  | Min_depth.Impossible -> ()
  | Min_depth.Sorter _ -> Alcotest.fail "no 3-stage sorter for n=8 (< trivial bound would be absurd... but 3 = lg n is still too shallow)"
  | Min_depth.Inconclusive | Min_depth.Interrupted -> Alcotest.fail "should be decidable"

let test_n8_depth4_impossible () =
  match Min_depth.search ~n:8 ~depth:4 ~budget:(budget 500_000_000) () with
  | Min_depth.Impossible -> ()
  | Min_depth.Sorter _ -> Alcotest.fail "depth-4 sorter for n=8 would be a discovery; recheck"
  | Min_depth.Inconclusive | Min_depth.Interrupted -> Alcotest.fail "budget too small"

let test_bitonic_witness_shape () =
  (* the searcher's own witness format: feeding bitonic's op vectors
     through verify_witness *)
  let n = 8 in
  let prog = Bitonic.shuffle_program ~n in
  let opss = List.map (fun st -> st.Register_model.ops) (Register_model.stages prog) in
  check_bool "bitonic passes verify_witness" true (Min_depth.verify_witness ~n opss)

let test_budget_reported () =
  match Min_depth.search ~n:8 ~depth:5 ~budget:(budget 50) () with
  | Min_depth.Inconclusive -> ()
  | Min_depth.Interrupted -> Alcotest.fail "nothing cancels this run"
  | Min_depth.Sorter _ | Min_depth.Impossible ->
      Alcotest.fail "a 50-node budget cannot decide depth 5"

let test_minimal_unknown () =
  (* minimal_depth must report budget exhaustion distinguishably
     instead of raising *)
  match Min_depth.minimal_depth ~n:8 ~max_depth:5 ~budget:(budget 50) () with
  | Min_depth.Unknown k -> check_bool "refuted levels >= 0" true (k >= 0)
  | Min_depth.Stopped _ -> Alcotest.fail "nothing cancels this run"
  | Min_depth.Minimal _ | Min_depth.No_sorter ->
      Alcotest.fail "a 50-node budget cannot decide n=8"

let test_golden () =
  (* every run of this file's cases, through the driver with its
     stats: outcome, witness and decision counters must equal the
     legacy engine's, recorded in golden/shuffle.txt *)
  List.iter
    (fun (n, max_depth, b) ->
      Golden.check "shuffle.txt"
        (Golden.key ~n ~max_depth b)
        (Golden.render_shuffle
           (Driver.run ~budget:(Golden.budget_of b) ~max_depth (Min_depth.system ~n))))
    Golden.shuffle_runs

let test_invalid_n () =
  check_bool "rejects n=6" true
    (match Min_depth.search ~n:6 ~depth:1 () with
     | exception Invalid_argument _ -> true
     | _ -> false)

let () =
  Alcotest.run "min_depth"
    [ ( "search",
        [ Alcotest.test_case "n=2" `Quick test_n2;
          Alcotest.test_case "n=4 exact minimum is 3" `Quick test_n4_exact;
          Alcotest.test_case "n=8 depth 3 impossible" `Quick test_n8_depth3_impossible;
          Alcotest.test_case "n=8 depth 4 impossible" `Slow test_n8_depth4_impossible;
          Alcotest.test_case "bitonic as witness" `Quick test_bitonic_witness_shape;
          Alcotest.test_case "budget honoured" `Quick test_budget_reported;
          Alcotest.test_case "minimal_depth reports Unknown" `Quick test_minimal_unknown;
          Alcotest.test_case "invalid n" `Quick test_invalid_n;
          Alcotest.test_case "legacy golden files" `Quick test_golden ] ) ]
