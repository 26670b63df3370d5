(* Tests for the benchmark harness's own logic: tail-percentile
   choice, open-loop latency and generator lateness, frame decoding,
   backlog detection, and the metric names against BENCHMARK.json. *)

open Perfbench

let check_float = Alcotest.(check (float 1e-9))

let floats n = List.init n (fun i -> float_of_int (i + 1))

(* --- Stats --- *)

let test_tail_needs_ten_beyond () =
  let pick n = Stats.tail_percentile n in
  let opt = Alcotest.(check (option (float 0.))) in
  opt "1000 samples: p99" (Some 99.) (pick 1000);
  opt "10000 samples: p99.9" (Some 99.9) (pick 10000);
  opt "500 samples: p98" (Some 98.) (pick 500);
  opt "200 samples: p95" (Some 95.) (pick 200);
  opt "38 samples: p75" (Some 75.) (pick 38);
  opt "37 samples: none" None (pick 37);
  opt "5 samples: none" None (pick 5);
  (* every choice leaves at least ten samples above it, and the next
     higher percentile would not *)
  List.iter
    (fun n ->
      match pick n with
      | None -> ()
      | Some p ->
          let v = Stats.percentile (floats n) p in
          let above = List.length (List.filter (fun x -> x > v) (floats n)) in
          Alcotest.(check bool) (Printf.sprintf "n=%d: >= 10 beyond p%g" n p) true (above >= 10))
    [ 38; 60; 100; 137; 250; 999; 1000; 1500; 20000 ]

let test_summary () =
  let s = Stats.summarize (floats 1000) in
  check_float "median" 500.5 s.Stats.p50;
  Alcotest.(check int) "n" 1000 s.Stats.n;
  (match s.Stats.tail with
  | Some (p, v) ->
      check_float "p99" 99. p;
      Alcotest.(check bool) "value" true (v > 990. && v < 991.)
  | None -> Alcotest.fail "expected a tail");
  let few = Stats.summarize [ 3.; 1.; 2. ] in
  Alcotest.(check bool) "no tail" true (few.Stats.tail = None);
  check_float "falls back to median" 2. (Stats.tail_or_median few)

(* --- Loadgen --- *)

let test_latency_from_due () =
  (* due at 1.0, sent late at 1.5 (a stalled generator), answered at
     1.6: the request waited 600 ms, not 100 *)
  check_float "latency" 600. (Loadgen.latency_ms ~due:1.0 ~recv:1.6);
  check_float "lateness" 500. (Loadgen.late_ms ~due:1.0 ~sent:1.5);
  check_float "never negative" 0. (Loadgen.late_ms ~due:2.0 ~sent:1.9)

let test_lateness_accounting () =
  let l =
    Loadgen.account_lateness [ (0., 0.); (1., 1.002); (2., 2.010); (3., 2.9) ]
  in
  check_float "max" 10. l.Loadgen.late_max_ms;
  Alcotest.(check int) "over 1 ms" 2 l.Loadgen.late_over_1ms;
  check_float "median" 1. l.Loadgen.late_p50_ms

let test_arrivals () =
  let a = Loadgen.arrivals ~rng:(Random.State.make [| 7 |]) ~rate:1000. ~duration:2. in
  let b = Loadgen.arrivals ~rng:(Random.State.make [| 7 |]) ~rate:1000. ~duration:2. in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let n = List.length a in
  Alcotest.(check bool) "about rate x duration" true (n > 1800 && n < 2200);
  Alcotest.(check bool) "ascending, inside the window" true
    (fst
       (List.fold_left (fun (ok, prev) t -> (ok && t >= prev && t < 2., t)) (true, 0.) a))

let test_take_frames () =
  let buf = Buffer.create 16 in
  Buffer.add_string buf "3\nabc\n5\nhel";
  Alcotest.(check (list string)) "complete frames only" [ "abc" ] (Loadgen.take_frames buf);
  Buffer.add_string buf "lo\n0\n\n";
  Alcotest.(check (list string)) "the rest" [ "hello"; "" ] (Loadgen.take_frames buf);
  Alcotest.(check int) "buffer drained" 0 (Buffer.length buf)

(* A server that answers each request 30 ms after reading it, one at
   a time: three requests all due at once must show the queueing,
   30/60/90 ms from their common due time. *)
let test_open_loop_counts_queueing () =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let serve () =
    let r = Frame.reader server in
    for _ = 1 to 3 do
      match Frame.read ~max:1024 r with
      | Ok p ->
          Thread.delay 0.03;
          Frame.write server p
      | Error _ -> ()
    done
  in
  let th = Thread.create serve () in
  let due = Unix.gettimeofday () +. 0.005 in
  let reqs = Array.init 3 (fun i -> { Loadgen.due; conn = 0; payload = string_of_int i }) in
  let out = Loadgen.run ~fds:[| client |] ~give_up:(due +. 5.) reqs in
  Thread.join th;
  Unix.close client;
  Unix.close server;
  Alcotest.(check (array string)) "responses in order" [| "0"; "1"; "2" |] out.Loadgen.response;
  let lat = Array.map (fun recv -> Loadgen.latency_ms ~due ~recv) out.Loadgen.recv in
  Alcotest.(check bool) "first waits its own service" true (lat.(0) >= 29.);
  Alcotest.(check bool) "third waits for the two before it" true (lat.(2) >= 89.)

(* --- serve-mix rung rules --- *)

let test_backlog () =
  Alcotest.(check bool) "flat latency" false (Serve_mix.backlog_grows (List.init 300 (fun _ -> 2.5)));
  Alcotest.(check bool) "latency climbing through the rung" true
    (Serve_mix.backlog_grows (List.init 300 (fun i -> 2. +. float_of_int i)));
  Alcotest.(check bool) "too few samples to judge" false (Serve_mix.backlog_grows [ 1.; 50. ])

(* --- names --- *)

let spec () =
  match Spec.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let names ms = List.sort compare (List.map (fun (m : Spec.metric) -> m.Spec.name) ms)

let sample_report =
  { Report.setup = [ 0.1; 0.2; 0.3 ]; op_ms = 1.; rss_mb = 2.; attempted = 1; failed = 0;
    errors = []; lines = []; e2e = []; layers = [] }

(* Every end-to-end metric a run reports is listed, and every listed
   one is reported. *)
let test_end_to_end_names () =
  let s = spec () in
  Alcotest.(check bool) "setup_s is listed" true
    (List.exists (fun (m : Spec.metric) -> m.Spec.name = "setup_s") s.Spec.end_to_end);
  match Spec.select ~what:"end-to-end" s.Spec.end_to_end (Report.end_to_end sample_report) with
  | Ok v -> Alcotest.(check int) "all reported" (List.length s.Spec.end_to_end) (List.length v)
  | Error e -> Alcotest.fail e

(* The per-layer metrics the workloads measure, together, are exactly
   the listed ones: one traced operation of each compute workload,
   plus the names the serve-mix readers produce (on no traffic). *)
let test_per_layer_names () =
  let s = spec () in
  let compute =
    List.concat_map
      (fun w ->
        match Compute.traced_op (Compute.setup w) with
        | Ok l -> List.map fst l
        | Error e -> Alcotest.fail e)
      (List.filter (fun w -> w <> "serve-mix") s.Spec.workloads)
  in
  let serve =
    List.map fst
      (Serve_mix.trace_layers ~spans:(Hashtbl.create 1) ~metrics:[] [] @ Serve_mix.replay [])
  in
  (* reported by the worker and by serve-mix from two medians *)
  let overhead = [ "trace.overhead_ms" ] in
  let measured = List.sort_uniq compare (compute @ serve @ overhead) in
  Alcotest.(check (list string)) "measured = listed" (names s.Spec.per_layer) measured

let test_select () =
  let listed = [ { Spec.name = "a"; unit = "s" }; { Spec.name = "b"; unit = "ms" } ] in
  let ok r = Result.is_ok r in
  Alcotest.(check bool) "all measured" true (ok (Spec.select ~what:"x" listed [ ("b", 2.); ("a", 1.) ]));
  Alcotest.(check bool) "one not measured" false (ok (Spec.select ~what:"x" listed [ ("a", 1.) ]));
  Alcotest.(check bool) "not measured, layer unused" true
    (Spec.select ~what:"x" ~absent:0. listed [ ("a", 1.) ]
    = Ok [ (List.nth listed 0, 1.); (List.nth listed 1, 0.) ]);
  Alcotest.(check bool) "measured, not listed" false
    (ok (Spec.select ~what:"x" ~absent:0. listed [ ("a", 1.); ("c", 3.) ]))

let test_file_rules () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let replace sub by =
    let rec find i = if String.sub text i (String.length sub) = sub then i else find (i + 1) in
    let i = find 0 in
    String.sub text 0 i ^ by
    ^ String.sub text (i + String.length sub) (String.length text - i - String.length sub)
  in
  let bad what t = Alcotest.(check bool) what true (Result.is_error (Spec.of_string t)) in
  bad "malformed name" (replace "\"op_ms\"" "\"op ms\"");
  bad "duplicate name" (replace "\"op_ms\"" "\"setup_s\"");
  bad "malformed unit" (replace "\"unit\": \"ms\"" "\"unit\": \"m s\"");
  let renamed =
    match Spec.of_string (replace "\"op_ms\"" "\"op_msx\"") with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "a renamed metric is caught" true
    (Result.is_error
       (Spec.select ~what:"end-to-end" renamed.Spec.end_to_end (Report.end_to_end sample_report)))

let test_name_rules () =
  let s = spec () in
  List.iter
    (fun n -> Alcotest.(check bool) ("valid " ^ n) true (Spec.valid_name n))
    ("9lives" :: s.Spec.workloads @ names (s.Spec.end_to_end @ s.Spec.per_layer));
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid " ^ n) false (Spec.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; String.make 65 'a' ];
  Alcotest.(check bool) "unit 1/s" true (Spec.valid_unit "1/s");
  Alcotest.(check bool) "unit with space" false (Spec.valid_unit "per s")

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "tail needs ten beyond" `Quick test_tail_needs_ten_beyond;
          Alcotest.test_case "summary" `Quick test_summary ] );
      ( "loadgen",
        [ Alcotest.test_case "latency from due time" `Quick test_latency_from_due;
          Alcotest.test_case "lateness accounting" `Quick test_lateness_accounting;
          Alcotest.test_case "seeded arrivals" `Quick test_arrivals;
          Alcotest.test_case "frame decoding" `Quick test_take_frames;
          Alcotest.test_case "open loop counts queueing" `Quick test_open_loop_counts_queueing ] );
      ("serve-mix", [ Alcotest.test_case "backlog" `Quick test_backlog ]);
      ( "names",
        [ Alcotest.test_case "end-to-end names" `Quick test_end_to_end_names;
          Alcotest.test_case "per-layer names" `Quick test_per_layer_names;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "file rules" `Quick test_file_rules;
          Alcotest.test_case "name rules" `Quick test_name_rules ] );
    ]
