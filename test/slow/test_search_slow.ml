(* Slow searches excluded from the tier-1 `dune runtest` wall: run with
   `dune build @search-slow` (or `make test-slow`). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let certify n want =
  match Driver.optimal_depth ~n () with
  | Driver.Sorted { depth; moves; stats } ->
      check_int (Printf.sprintf "n=%d optimal depth" n) want depth;
      check_bool "witness verifies" true (Driver.verify_witness ~n moves);
      Printf.printf "n=%d: depth %d, %d nodes, peak frontier %d\n%!" n depth
        stats.Driver.nodes stats.Driver.peak_frontier
  | Driver.Unsorted _ | Driver.Inconclusive _ | Driver.Interrupted _ ->
      Alcotest.failf "n=%d search failed" n

let test_n7 () = certify 7 6
let test_n8 () = certify 8 6

let test_n9 () =
  (* decision identity at the largest size the search certifies (the
     golden files stop at n=8): a subsumption test that decides any
     pair differently moves these counters *)
  match Driver.optimal_depth ~n:9 () with
  | Driver.Sorted { depth; moves; stats } ->
      check_int "n=9 optimal depth" 7 depth;
      check_bool "witness verifies" true (Driver.verify_witness ~n:9 moves);
      check_int "nodes" 1501595 stats.Driver.nodes;
      check_int "deduped" 200211 stats.Driver.deduped;
      check_int "subsumed" 1295950 stats.Driver.subsumed;
      check_int "redundant" 12677709 stats.Driver.redundant;
      check_int "peak frontier" 4355 stats.Driver.peak_frontier
  | Driver.Unsorted _ | Driver.Inconclusive _ | Driver.Interrupted _ ->
      Alcotest.fail "n=9 search failed"

let test_n7_reference_agreement () =
  (* the equality-dedup reference confirms the pruned optimum at n=7
     and quantifies what subsumption buys at this size *)
  let pruned_nodes =
    match Driver.optimal_depth ~n:7 () with
    | Driver.Sorted { depth; stats; _ } ->
        check_int "pruned depth" 6 depth;
        stats.Driver.nodes
    | _ -> Alcotest.fail "pruned n=7 failed"
  in
  match Driver.optimal_depth ~restrict:false ~n:7 () with
  | Driver.Sorted { depth; stats; _ } ->
      check_int "reference depth" 6 depth;
      check_bool
        (Printf.sprintf "pruning ratio %d/%d >= 10" stats.Driver.nodes
           pruned_nodes)
        true
        (stats.Driver.nodes >= 10 * pruned_nodes)
  | _ -> Alcotest.fail "reference n=7 failed"

let test_shuffle_n8_depth5_refuted () =
  (* the E11 headline: no 5-stage shuffle-based sorter for n=8 *)
  match
    Min_depth.search ~n:8 ~depth:5
      ~budget:{ Driver.max_nodes = 2_000_000_000; max_seconds = None } ()
  with
  | Min_depth.Impossible -> ()
  | Min_depth.Sorter _ -> Alcotest.fail "a 5-stage shuffle sorter would be news"
  | Min_depth.Inconclusive | Min_depth.Interrupted -> Alcotest.fail "budget too small"

let () =
  Alcotest.run "search-slow"
    [ ( "driver",
        [ Alcotest.test_case "n=7 optimal depth 6" `Slow test_n7;
          Alcotest.test_case "n=8 optimal depth 6" `Slow test_n8;
          Alcotest.test_case "n=9 optimal depth 7" `Slow test_n9;
          Alcotest.test_case "n=7 reference agreement" `Slow
            test_n7_reference_agreement;
          Alcotest.test_case "no 5-stage shuffle sorter at n=8" `Slow
            test_shuffle_n8_depth5_refuted ] ) ]
