(* serve-mix: open-loop traffic from this single-threaded process over
   two pipelined Unix-socket connections to a separate [snlb serve]
   process with its default configuration. *)

(* Request rates (per second), fixed once from the parent commit's
   measured capacity: see README.md. The first is the base rate. *)
let ladder = [ 100.; 300.; 500.; 700. ]

(* Latency limit on each rung's tail percentile. *)
let limit_ms = 50.

let connections = 2

(* Seconds a rung's stragglers may take after its last due time
   before they count as failed. *)
let drain_s = 5.

(* Requests replayed in-process for the per-layer timings. *)
let replay_max = 200

let work_dir = ".perfbench"

type server = { pid : int; out : in_channel; addr : Server.addr; path : string }

let spawn ~snlb ~trace =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
  let path =
    Printf.sprintf "%s/serve-%d-%d.sock" work_dir (Unix.getpid ())
      (int_of_float (Unix.gettimeofday () *. 1e6) mod 1_000_000)
  in
  let trace_args =
    match trace with Some f -> [ "--trace"; f; "--metrics" ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process snlb
      (Array.of_list ([ snlb; "serve"; "--socket"; path ] @ trace_args))
      devnull wr Unix.stderr
  in
  Unix.close wr;
  Unix.close devnull;
  { pid; out = Unix.in_channel_of_descr rd; addr = Server.Unix_path path; path }

(* Stop the server and return what it printed after "listening" (the
   metrics table of a traced server). *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rest = In_channel.input_all s.out in
  close_in s.out;
  ignore (Unix.waitpid [] s.pid);
  if Sys.file_exists s.path then Sys.remove s.path;
  rest

let probe_request = {|{"id":0,"verb":"verify","algo":"odd-even-merge","n":8}|}

(* Start a server, open the traffic connections and run [f s fds];
   the server is stopped whatever happens. Returns [f]'s result, the
   time from the spawn to the first response (one set-up sample) and
   what the server printed. *)
let with_server ~snlb ~trace f =
  let t0 = Unix.gettimeofday () in
  let s = spawn ~snlb ~trace in
  let fds = ref [||] in
  let finally () =
    Array.iter Unix.close !fds;
    stop s
  in
  match
    (match In_channel.input_line s.out with
    | Some l when String.starts_with ~prefix:"serve: listening" l -> ()
    | _ -> failwith "serve-mix: the server did not start");
    fds := Array.init connections (fun _ -> Server.connect s.addr);
    Frame.write !fds.(0) probe_request;
    (match Frame.read ~max:(1 lsl 20) (Frame.reader !fds.(0)) with
    | Ok r when String.length r > 0 -> ()
    | _ -> failwith "serve-mix: no answer to the first request");
    let dt = Unix.gettimeofday () -. t0 in
    (f s !fds, dt)
  with
  | r, dt -> (r, dt, finally ())
  | exception e ->
      ignore (finally ());
      raise e

type rung = {
  rate : float;
  items : Traffic.item array;
  reqs : Loadgen.request array;
  out : Loadgen.outcome;
  lat : float list;  (* ms from due, successful requests, in due order *)
  summary : Stats.summary;
  drain_ms : float;
  errors : string list;
}

(* A rung meets the limit when its tail is within [limit_ms] and its
   backlog did not grow: the latency of the rung's last third is not
   more than double that of its first third (plus 1 ms of slack), and
   the last response came within [limit_ms] of the last due time. *)
let backlog_grows lat =
  let a = Array.of_list lat in
  let n = Array.length a in
  if n < 6 then false
  else
    let third = n / 3 in
    let med l = Stats.median (Array.to_list l) in
    let first = med (Array.sub a 0 third) and last = med (Array.sub a (n - third) third) in
    last > (2. *. first) +. 1.

let meets r =
  r.errors = []
  && Stats.tail_or_median r.summary <= limit_ms
  && r.drain_ms <= limit_ms
  && not (backlog_grows r.lat)

(* Run each rate for [rung_s] seconds (three times that at the base
   rate), one after the other, waiting for each rate's stragglers
   before the next starts. *)
let drive ~gen ~rng ~fds ~rates ~rung_s ~first_id =
  let id = ref first_id in
  List.map
    (fun rate ->
      let rung_s = if rate = List.hd ladder then 3. *. rung_s else rung_s in
      let offsets = Array.of_list (Loadgen.arrivals ~rng ~rate ~duration:rung_s) in
      let ids = Array.map (fun _ -> incr id; !id) offsets in
      let items = Array.map (fun id -> Traffic.next gen ~id) ids in
      let t0 = Unix.gettimeofday () +. 0.01 in
      let reqs =
        Array.mapi
          (fun i off ->
            { Loadgen.due = t0 +. off; conn = i mod connections; payload = items.(i).Traffic.payload })
          offsets
      in
      let last_due = t0 +. rung_s in
      let out = Loadgen.run ~fds ~give_up:(last_due +. drain_s) reqs in
      let errors = ref [] and lat = ref [] and last_recv = ref t0 in
      Array.iteri
        (fun i item ->
          let recv = out.Loadgen.recv.(i) in
          if Float.is_nan recv then errors := "no response in time" :: !errors
          else begin
            last_recv := Float.max !last_recv recv;
            match Traffic.check item ~id:ids.(i) out.Loadgen.response.(i) with
            | Ok () -> lat := Loadgen.latency_ms ~due:reqs.(i).Loadgen.due ~recv :: !lat
            | Error e -> errors := e :: !errors
          end)
        items;
      let lat = List.rev !lat in
      { rate;
        items;
        reqs;
        out;
        lat;
        summary = Stats.summarize (if lat = [] then [ nan ] else lat);
        drain_ms = Float.max 0. ((!last_recv -. last_due) *. 1000.);
        errors = List.rev !errors;
      })
    rates

(* How late the generator got to its requests, over [rungs]. *)
let lateness rungs =
  Loadgen.account_lateness
    (List.concat_map
       (fun r ->
         List.init (Array.length r.reqs) (fun i -> (r.reqs.(i).Loadgen.due, r.out.Loadgen.queued.(i))))
       rungs)

let max_rps rungs =
  List.fold_left (fun acc r -> if meets r then Float.max acc r.rate else acc) 0. rungs

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))

(* Latency by request class at one rung: (class, latencies in ms). *)
let by_class r =
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i (it : Traffic.item) ->
      let recv = r.out.Loadgen.recv.(i) in
      if not (Float.is_nan recv) then
        Hashtbl.replace tbl it.Traffic.cls
          (Loadgen.latency_ms ~due:r.reqs.(i).Loadgen.due ~recv
          :: Option.value (Hashtbl.find_opt tbl it.Traffic.cls) ~default:[]))
    r.items;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let pp_classes r =
  List.map
    (fun (c, l) ->
      Printf.sprintf "    %s: n=%d, median %.3g ms, mean %.3g ms" c (List.length l)
        (Stats.median l) (mean l))
    (by_class r)

let pp_rung r =
  Printf.sprintf "  rate %g/s: %s, drain %.3g ms, failed %d/%d, %s" r.rate
    (Stats.pp_summary ~unit:"ms" r.summary)
    r.drain_ms (List.length r.errors) (Array.length r.items)
    (if meets r then "meets the limit" else "misses the limit")

(* --- traced-run helpers --- *)

(* Counter rows of the server's --metrics table. *)
let parse_metrics text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match List.filter (fun s -> s <> "") (String.split_on_char ' ' line) with
         | [ name; v ] -> Option.map (fun x -> (name, x)) (float_of_string_opt v)
         | _ -> None)

(* serve.request spans by trace id: (verb, wall ms). *)
let read_spans path =
  let tbl = Hashtbl.create 1024 in
  In_channel.with_open_text path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (match Json.of_string line with
            | Ok j when Json.member "name" j = Some (Json.Str "serve.request") -> (
                let str k = Option.bind (Json.member k j) Json.to_str in
                let wall =
                  match Json.member "wall_s" j with
                  | Some (Json.Float f) -> Some f
                  | Some (Json.Int i) -> Some (float_of_int i)
                  | _ -> None
                in
                match (str "trace", str "verb", wall) with
                | Some t, Some v, Some w -> Hashtbl.replace tbl t (v, w *. 1000.)
                | _ -> ())
            | _ -> ());
            loop ()
      in
      loop ());
  tbl

let time_us f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  ((Unix.gettimeofday () -. t0) *. 1e6, r)

(* The layers' public calls, in-process on the traffic's own frames. *)
let replay rungs =
  let items = Array.concat (List.map (fun r -> r.items) rungs) in
  let responses = Array.concat (List.map (fun r -> r.out.Loadgen.response) rungs) in
  let parse = ref [] and resolve = ref [] and key = ref [] and compile = ref [] in
  let sweep = ref [] and lint = ref [] and encode = ref [] in
  let n = min replay_max (Array.length items) in
  let g0 = Gc.quick_stat () in
  for i = 0 to n - 1 do
    let it = items.(i) in
    let us, req = time_us (fun () -> Wire.parse_request it.Traffic.payload) in
    parse := us :: !parse;
    (match req with
    | Error _ -> ()
    | Ok req -> (
        let us, nw = time_us (fun () -> Wire.resolve_network ~max_wires:16 req) in
        resolve := us :: !resolve;
        match nw with
        | Error _ -> ()
        | Ok nw -> (
            match it.Traffic.verb with
            | Wire.Verify ->
                let us, _ = time_us (fun () -> Scache.key nw) in
                key := us :: !key;
                let us, c = time_us (fun () -> Compiled.of_network nw) in
                compile := us :: !compile;
                let us, _ = time_us (fun () -> Bitslice.find_unsorted c) in
                sweep := us :: !sweep
            | Wire.Lint ->
                let us, _ = time_us (fun () -> Analysis.analyze ~exact_max_wires:12 nw) in
                lint := us :: !lint
            | Wire.Eval | Wire.Certify -> ())));
    match Json.of_string responses.(i) with
    | Ok j ->
        let us, _ = time_us (fun () -> Json.to_string j) in
        encode := us :: !encode
    | Error _ -> ()
  done;
  let g1 = Gc.quick_stat () in
  let med l = if l = [] then 0. else Stats.median l in
  let per_req x = if n = 0 then 0. else x /. float_of_int n in
  [ ("wire.parse_us", med !parse);
    ("wire.resolve_us", med !resolve);
    ("scache.key_us", med !key);
    ("engine.compile_us", med !compile);
    ("engine.sweep_us", med !sweep);
    ("analysis.lint_us", med !lint);
    ("json.encode_us", med !encode);
    ( "gc.minor_collections",
      per_req (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections)) );
    ( "gc.major_collections",
      per_req (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)) );
    ("gc.promoted_words", per_req (g1.Gc.promoted_words -. g0.Gc.promoted_words));
  ]

let trace_layers ~spans ~metrics rungs =
  let by_verb = Hashtbl.create 4 and outside = ref [] in
  List.iter
    (fun r ->
      Array.iteri
        (fun i resp ->
          let recv = r.out.Loadgen.recv.(i) in
          let trace =
            Option.bind (Result.to_option (Json.of_string resp)) (fun j ->
                Option.bind (Json.member "trace" j) Json.to_str)
          in
          match Option.bind trace (Hashtbl.find_opt spans) with
          | Some (verb, ms) when not (Float.is_nan recv) ->
              Hashtbl.replace by_verb verb
                (ms :: Option.value (Hashtbl.find_opt by_verb verb) ~default:[]);
              outside := ((recv -. r.out.Loadgen.sent.(i)) *. 1000.) -. ms :: !outside
          | _ -> ())
        r.out.Loadgen.response)
    rungs;
  let spans_m =
    List.concat_map
      (fun v ->
        let s = Hashtbl.find_opt by_verb v in
        let sum = Option.map Stats.summarize s in
        [ (Printf.sprintf "serve.span_ms.%s.p50" v,
           Option.fold ~none:0. ~some:(fun s -> s.Stats.p50) sum);
          (Printf.sprintf "serve.span_ms.%s.tail" v,
           Option.fold ~none:0. ~some:Stats.tail_or_median sum) ])
      (List.map Wire.verb_name [ Wire.Verify; Wire.Eval; Wire.Lint; Wire.Certify ])
  in
  let c k = Option.value (List.assoc_opt k metrics) ~default:0. in
  let ratio a b = if b > 0. then a /. b else 0. in
  let late = lateness rungs in
  spans_m
  @ [ ("serve.outside_span_ms", if !outside = [] then 0. else Stats.median !outside);
      ( "scache.hit_ratio",
        ratio (c "serve.cache.hits") (c "serve.cache.hits" +. c "serve.cache.misses") );
      ( "batcher.coalesced_per_sweep",
        ratio (c "serve.verify.sweeps" +. c "serve.verify.coalesced") (c "serve.verify.sweeps") );
      ("batcher.lane_fill", ratio (c "serve.eval.lanes") (63. *. c "serve.eval.passes"));
      ("loadgen.late_ms", late.Loadgen.late_tail_ms);
    ]

let run ~snlb ~seed ~seconds ~traced =
  let rng = Random.State.make [| seed |] in
  let gen = Traffic.create ~seed in
  let setup = ref [] in
  for _ = 1 to Report.setup_starts - 1 do
    let (), dt, _ = with_server ~snlb ~trace:None (fun _ _ -> ()) in
    setup := dt :: !setup
  done;
  (* the base rate gets three times the time of the other rates, for
     a steadier mean; a traced run adds one untraced base-rate rung *)
  let weight = List.length ladder + 2 + if traced then 3 else 0 in
  let rung_s = float_of_int seconds /. float_of_int weight in
  let base = List.hd ladder in
  (* untraced traffic: the whole ladder, or in a traced run only the
     base rate, as the reference for the tracing overhead *)
  let rates = if traced then [ base ] else ladder in
  let (plain, rss), dt, _ =
    with_server ~snlb ~trace:None (fun s fds ->
        let plain = drive ~gen ~rng ~fds ~rates ~rung_s ~first_id:0 in
        (plain, Host.peak_rss_mb (string_of_int s.pid)))
  in
  setup := dt :: !setup;
  let base_rung = List.hd plain in
  let traced_part =
    if not traced then None
    else begin
      let trace_file = Printf.sprintf "%s/serve-trace-%d.ndjson" work_dir (Unix.getpid ()) in
      let t, _, printed =
        with_server ~snlb ~trace:(Some trace_file) (fun _ fds ->
            drive ~gen ~rng ~fds ~rates:ladder ~rung_s ~first_id:1_000_000)
      in
      let metrics = parse_metrics printed in
      let spans = read_spans trace_file in
      Sys.remove trace_file;
      Some (t, spans, metrics)
    end
  in
  let rungs = match traced_part with Some (t, _, _) -> t | None -> plain in
  let all_rungs = plain @ match traced_part with Some (t, _, _) -> t | None -> [] in
  let errors = List.concat_map (fun r -> r.errors) all_rungs in
  let top = List.nth rungs (List.length rungs - 1) in
  let base_r = List.hd rungs in
  let layers =
    match traced_part with
    | None -> []
    | Some (t, spans, metrics) ->
        trace_layers ~spans ~metrics t
        @ replay t
        @ [ ("trace.overhead_ms", mean (List.hd t).lat -. mean base_rung.lat) ]
  in
  let with_summary v s = Printf.sprintf "%.6g (%s)" v (Stats.pp_summary ~unit:"ms" s) in
  { Report.setup = !setup;
    op_ms = mean base_rung.lat;
    rss_mb = rss;
    attempted = List.fold_left (fun a r -> a + Array.length r.items) 0 all_rungs;
    failed = List.length errors;
    errors;
    lines =
      Printf.sprintf "ladder %s req/s, %g s per rate (%g s at the base rate), limit %g ms on the tail"
        (String.concat "," (List.map (Printf.sprintf "%g") ladder))
        rung_s (3. *. rung_s) limit_ms
      :: List.map pp_rung rungs
      @ Printf.sprintf "  base rate: mean %.4g ms, p90 %.4g ms" (mean base_r.lat)
          (Stats.percentile base_r.lat 90.)
        :: pp_classes base_r
      @ [ (let l = lateness all_rungs in
           Printf.sprintf
             "generator lateness: median %.3g ms, tail %.3g ms, max %.3g ms, %d requests over 1 ms late"
             l.Loadgen.late_p50_ms l.Loadgen.late_tail_ms l.Loadgen.late_max_ms l.Loadgen.late_over_1ms) ];
    e2e =
      [ ("serve_p50_ms", "ms", with_summary base_r.summary.Stats.p50 base_r.summary);
        ("serve_p99_ms", "ms", with_summary (Stats.tail_or_median base_r.summary) base_r.summary);
        ("serve_p99_ms_peak", "ms", with_summary (Stats.tail_or_median top.summary) top.summary);
        ("serve_max_rps", "1/s", Printf.sprintf "%g" (max_rps rungs));
      ];
    layers;
  }
