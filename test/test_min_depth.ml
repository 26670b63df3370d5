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

(* The prune as it read a boxed state before it became row-native: a
   scan of every reachable mask for a unit or co-unit mask out of
   place. Kept as the oracle for the hook, which reads the 2n unit and
   co-unit masks of the staging row. *)
let state_prunable ~n ~d ~remaining state =
  if remaining >= d then false
  else begin
    let low_mask = (1 lsl (d - remaining)) - 1 in
    let full = (1 lsl n) - 1 in
    State.exists_mask
      (fun m ->
        if m <> 0 && m land (m - 1) = 0 then
          Bitops.floor_log2 m land low_mask <> low_mask
        else
          let c = full land lnot m in
          c <> 0 && c land (c - 1) = 0 && Bitops.floor_log2 c land low_mask <> 0)
      state
  end

(* Random states that hold each unit and co-unit mask with probability
   1/n, next to a few arbitrary masks, so both verdicts occur. *)
let test_row_prune_oracle () =
  let rng = Xoshiro.of_seed 17 in
  List.iter
    (fun n ->
      let d = Bitops.log2_exact n and full = (1 lsl n) - 1 in
      let sys = Min_depth.system ~n in
      let arena = Arena.create ~with_sigs:false ~n () in
      let verdicts = Array.make 2 0 in
      for _ = 1 to 300 do
        let special =
          List.concat_map
            (fun p -> [ 1 lsl p; full lxor (1 lsl p) ])
            (List.init n Fun.id)
          |> List.filter (fun _ -> Xoshiro.int rng ~bound:n = 0)
        in
        let other =
          List.init (Xoshiro.int rng ~bound:6) (fun _ ->
              Xoshiro.int rng ~bound:(full + 1))
        in
        let st = State.of_masks ~n (special @ other) in
        Arena.stage_state arena st;
        for remaining = 0 to d do
          let want = state_prunable ~n ~d ~remaining st in
          let got = sys.Driver.prune ~level:1 ~remaining (Arena.staged_mem arena) in
          if got <> want then
            Alcotest.failf "n=%d remaining=%d masks %s: row prune %b, oracle %b"
              n remaining
              (String.concat "," (List.map string_of_int (State.masks st)))
              got want;
          verdicts.(Bool.to_int got) <- verdicts.(Bool.to_int got) + 1
        done
      done;
      check_bool (Printf.sprintf "n=%d both verdicts occur" n) true
        (verdicts.(0) > 0 && verdicts.(1) > 0))
    [ 2; 4; 8; 16 ]

(* A depth-7 shuffle-based sorter for n = 8, below the 9 stages of the
   shuffle-form bitonic sorter; no stage can be dropped from it. *)
let test_n8_depth7_witness () =
  let parse s =
    Array.init (String.length s) (fun k ->
        match s.[k] with
        | '+' -> Register_model.Plus
        | '-' -> Register_model.Minus
        | '1' -> Register_model.One
        | _ -> Register_model.Zero)
  in
  let prog = List.map parse [ "++++"; "++++"; "--++"; "+--+"; "++++"; "++++"; "++++" ] in
  check_bool "depth 7 sorts" true (Min_depth.verify_witness ~n:8 prog);
  List.iteri
    (fun k _ ->
      check_bool (Printf.sprintf "without stage %d" (k + 1)) false
        (Min_depth.verify_witness ~n:8 (List.filteri (fun i _ -> i <> k) prog)))
    prog

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
          Alcotest.test_case "legacy golden files" `Quick test_golden;
          Alcotest.test_case "row prune = state prune (n=2,4,8,16)" `Quick
            test_row_prune_oracle;
          Alcotest.test_case "n=8 depth-7 witness" `Quick test_n8_depth7_witness ] ) ]
