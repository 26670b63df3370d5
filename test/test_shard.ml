(* Shard-coordinator tests: the supervisor's failure model
   (crash / stall / corruption / poison / drain), and — the part that
   matters — decision identity: the sharded search and the island
   evolve must produce byte-identical outcomes to their single-process
   references, including when every worker attempt is sabotaged. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_fault spec f =
  match Fault.set (Some spec) with
  | Error e -> Alcotest.fail ("fault spec rejected: " ^ e)
  | Ok () -> Fun.protect ~finally:(fun () -> ignore (Fault.set None)) f

let temp_dir () =
  let path = Filename.temp_file "snlb-shard" "" in
  Sys.remove path;
  path

let rm_rf dir =
  (match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        entries
  | exception Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* fast timeouts so sabotaged runs stay test-sized *)
let quick_config ~dir =
  { (Shard.default_config ~dir) with
    Shard.max_attempts = 3;
    backoff_base = 0.01;
    backoff_cap = 0.05;
    heartbeat_interval = 0.05;
    heartbeat_timeout = 0.4;
    grace = 0.2;
  }

(* --- the supervisor --- *)

let units_of n = List.init n (fun i -> (Printf.sprintf "u%d" i, string_of_int i))

let double ~id:_ ~payload = string_of_int (2 * int_of_string payload)

let expect_doubled what n = function
  | Shard.Completed results ->
      check_int (what ^ ": all units") n (List.length results);
      List.iteri
        (fun i (id, r) ->
          check_string (what ^ ": order") (Printf.sprintf "u%d" i) id;
          check_string (what ^ ": payload") (string_of_int (2 * i)) r)
        results
  | Shard.Quarantined ids ->
      Alcotest.failf "%s: quarantined %s" what (String.concat "," ids)
  | Shard.Cancelled -> Alcotest.failf "%s: cancelled" what

let test_supervisor_clean () =
  with_dir @@ fun dir ->
  let config = { (quick_config ~dir) with Shard.workers = 2 } in
  expect_doubled "clean" 5
    (Shard.run config ~kind:"t" ~units:(units_of 5) ~worker:double)

let test_supervisor_bad_ids () =
  with_dir @@ fun dir ->
  let config = quick_config ~dir in
  let boom units =
    match Shard.run config ~kind:"t" ~units ~worker:double with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "bad unit ids accepted"
  in
  boom [ ("", "x") ];
  boom [ ("a/b", "x") ];
  boom [ ("dup", "x"); ("dup", "y") ]

let sabotage_test what spec =
  with_dir @@ fun dir ->
  let config = { (quick_config ~dir) with Shard.workers = 2 } in
  with_fault spec @@ fun () ->
  (* prob 1.0: every unit's first attempt is sabotaged, every retry is
     clean — the run must still complete with correct results *)
  expect_doubled what 4
    (Shard.run config ~kind:"t" ~units:(units_of 4) ~worker:double)

let test_supervisor_kill () = sabotage_test "kill-worker" "kill-worker"
let test_supervisor_stall () = sabotage_test "stall-worker" "stall-worker"
let test_supervisor_corrupt () = sabotage_test "corrupt-result" "corrupt-result"

let test_supervisor_quarantine () =
  with_dir @@ fun dir ->
  let config = { (quick_config ~dir) with Shard.workers = 2 } in
  let worker ~id ~payload =
    if id = "u1" then failwith "poison" else double ~id ~payload
  in
  match Shard.run config ~kind:"t" ~units:(units_of 3) ~worker with
  | Shard.Quarantined [ "u1" ] -> ()
  | Shard.Quarantined ids ->
      Alcotest.failf "wrong quarantine set: %s" (String.concat "," ids)
  | Shard.Completed _ -> Alcotest.fail "poison unit completed"
  | Shard.Cancelled -> Alcotest.fail "cancelled"

let test_supervisor_cancel () =
  with_dir @@ fun dir ->
  let config = quick_config ~dir in
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  match Shard.run ~cancel config ~kind:"t" ~units:(units_of 3) ~worker:double with
  | Shard.Cancelled -> ()
  | _ -> Alcotest.fail "pre-cancelled run must return Cancelled"

(* --- sharded search: decision identity --- *)

(* Both sides of every identity check are held to the legacy engine's
   results recorded in golden/pruned.txt: the single-process search
   (the arena) and the sharded one. *)
let golden ?budget ~n ~max_depth outcome =
  Golden.check "pruned.txt"
    (Golden.key ~n ~max_depth budget)
    (Golden.render_layers outcome)

let single ?budget ~n () =
  let outcome =
    Driver.optimal_depth ~budget:(Golden.budget_of budget) ~max_depth:6 ~n ()
  in
  golden ?budget ~n ~max_depth:6 outcome

let sharded_outcome ?budget ~shards ~dir ?(max_depth = 6) ~n () =
  match
    Shard_search.run
      ~budget:(Golden.budget_of budget)
      ~config:(quick_config ~dir) ~shards ~dir ~max_depth
      (Driver.network_system ~n ())
  with
  | Ok outcome -> golden ?budget ~n ~max_depth outcome
  | Error e -> Alcotest.failf "sharded search failed: %s" e

let test_search_identity () =
  single ~n:6 ();
  List.iter
    (fun shards -> with_dir @@ fun dir -> sharded_outcome ~shards ~dir ~n:6 ())
    [ 1; 2; 3; 5 ]

let test_search_identity_wider () =
  (* the acceptance range: n=7 and n=8 must shard decision-identically
     too (n=8 is the registry-optimal 6-level case, ~6k nodes) *)
  List.iter
    (fun n ->
      single ~n ();
      with_dir @@ fun dir -> sharded_outcome ~shards:4 ~dir ~n ())
    [ 7; 8 ]

let test_search_identity_budget () =
  (* a node budget that trips mid-search must trip identically (the
     golden run is Inconclusive) *)
  let budget = 120 in
  single ~budget ~n:6 ();
  with_dir @@ fun dir -> sharded_outcome ~budget ~shards:3 ~dir ~n:6 ()

let test_search_identity_under_faults () =
  (* kill-worker at every shard: prob 1.0 sabotages each unit's first
     attempt, so every worker index is killed in turn; ditto the stall
     and corruption points. The merged outcome must not move. *)
  List.iter
    (fun spec ->
      with_dir @@ fun dir ->
      with_fault spec @@ fun () -> sharded_outcome ~shards:3 ~dir ~n:6 ())
    [ "kill-worker"; "stall-worker"; "corrupt-result" ];
  (* randomized seeded kill schedules: only some attempts die *)
  List.iter
    (fun seed ->
      with_dir @@ fun dir ->
      with_fault (Printf.sprintf "kill-worker:0.5:%d" seed) @@ fun () ->
      sharded_outcome ~shards:3 ~dir ~n:6 ())
    [ 1; 7; 2026 ]

(* --- island evolve: determinism and fault identity --- *)

let evolve_config =
  { (Evolve.default_config ~wires:6 ~depth:5) with
    Evolve.pop = 32;
    gens = 8;
    seed = 11;
  }

let digests r =
  Array.to_list (Array.map Evolve.population_digest r.Shard_islands.populations)

let islands_outcome ~mode ~dir ?(islands = 3) ?(epoch = 3) ?(migrants = 2) () =
  match
    Shard_islands.run ~config:(quick_config ~dir) ~mode ~dir ~islands ~epoch
      ~migrants evolve_config
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "islands run failed: %s" e

let islands_agree what a b =
  check_bool (what ^ ": found") true (a.Shard_islands.found = b.Shard_islands.found);
  check_int (what ^ ": best fitness") a.Shard_islands.best_fitness
    b.Shard_islands.best_fitness;
  check_string (what ^ ": best genome") (Genome.to_string a.Shard_islands.best)
    (Genome.to_string b.Shard_islands.best);
  check_int (what ^ ": generations") a.Shard_islands.generations
    b.Shard_islands.generations;
  check_bool (what ^ ": digests") true (digests a = digests b)

let test_islands_single_matches_plain () =
  (* one island, no migration: the plain generational run, reproduced
     through the fork-and-merge machinery *)
  let plain = Evolve.run evolve_config in
  with_dir @@ fun dir ->
  let r = islands_outcome ~mode:`Processes ~dir ~islands:1 ~migrants:0 () in
  check_bool "found agrees" true
    (r.Shard_islands.found
    = Option.map (fun g -> (g, 0)) plain.Evolve.found_at);
  check_int "fitness agrees" plain.Evolve.best_fitness
    r.Shard_islands.best_fitness;
  check_bool "population agrees" true
    (digests r = [ Evolve.population_digest plain.Evolve.population ])

let test_islands_processes_match_inline () =
  with_dir @@ fun dir ->
  let inline = islands_outcome ~mode:`Inline ~dir () in
  with_dir @@ fun dir ->
  let procs = islands_outcome ~mode:`Processes ~dir () in
  islands_agree "inline vs processes" inline procs

let test_islands_identity_under_faults () =
  with_dir @@ fun dir ->
  let reference = islands_outcome ~mode:`Inline ~dir () in
  List.iter
    (fun spec ->
      with_dir @@ fun dir ->
      with_fault spec @@ fun () ->
      islands_agree ("islands under " ^ spec) reference
        (islands_outcome ~mode:`Processes ~dir ()))
    [ "kill-worker"; "stall-worker"; "corrupt-result"; "kill-worker:0.5:3" ]

let () =
  Alcotest.run "shard"
    [ ( "supervisor",
        [ Alcotest.test_case "clean pool" `Quick test_supervisor_clean;
          Alcotest.test_case "unit-id validation" `Quick test_supervisor_bad_ids;
          Alcotest.test_case "kill-worker retries" `Quick test_supervisor_kill;
          Alcotest.test_case "stall-worker reaped" `Quick test_supervisor_stall;
          Alcotest.test_case "corrupt-result rejected" `Quick
            test_supervisor_corrupt;
          Alcotest.test_case "poison unit quarantined" `Quick
            test_supervisor_quarantine;
          Alcotest.test_case "cancel drains" `Quick test_supervisor_cancel ] );
      ( "search",
        [ Alcotest.test_case "decision identity (1/2/3/5 shards)" `Quick
            test_search_identity;
          Alcotest.test_case "decision identity at n=7,8" `Quick
            test_search_identity_wider;
          Alcotest.test_case "budget-trip identity" `Quick
            test_search_identity_budget;
          Alcotest.test_case "identity under every fault point" `Quick
            test_search_identity_under_faults ] );
      ( "islands",
        [ Alcotest.test_case "islands=1 matches plain evolve" `Quick
            test_islands_single_matches_plain;
          Alcotest.test_case "processes match inline" `Quick
            test_islands_processes_match_inline;
          Alcotest.test_case "identity under every fault point" `Quick
            test_islands_identity_under_faults ] );
    ]
