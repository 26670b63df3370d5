(* The benchmark harness.

   perfbench/run.sh --workload W --seed S --seconds T --trace 0|1
     builds the program and runs one workload; the last line of
     standard output is the result as one JSON object.
   perfbench/run.sh --all [--seed S] [--seconds T]
     runs every workload, each in its own process, and prints all the
     end-to-end metrics with their units.

   The executable also has an internal mode, [worker], which the
   harness spawns to run a compute workload in a process of its own. *)

open Perfbench

let now = Unix.gettimeofday

type args = {
  mutable mode : string;
  mutable workload : string;
  mutable seed : int;
  mutable seconds : int;
  mutable trace : bool;
  mutable snlb : string;
}

let parse_args () =
  let a =
    { mode = "run"; workload = ""; seed = 1; seconds = 10; trace = false;
      snlb = "_build/default/bin/snlb_cli.exe" }
  in
  let rec go = function
    | "worker" :: rest ->
        a.mode <- "worker";
        go rest
    | "--all" :: rest ->
        a.mode <- "all";
        go rest
    | "--workload" :: w :: rest ->
        a.workload <- w;
        go rest
    | "--seed" :: s :: rest ->
        a.seed <- int_of_string s;
        go rest
    | "--seconds" :: s :: rest ->
        a.seconds <- int_of_string s;
        go rest
    | "--trace" :: t :: rest ->
        a.trace <- (match t with "1" -> true | "0" -> false | _ -> failwith "--trace takes 0 or 1");
        go rest
    | "--snlb" :: p :: rest ->
        a.snlb <- p;
        go rest
    | [] -> ()
    | x :: _ -> failwith ("unknown argument " ^ x)
  in
  go (List.tl (Array.to_list Sys.argv));
  if a.seconds < 1 then failwith "--seconds must be at least 1";
  a

let json_floats l = Json.List (List.map (fun f -> Json.Float f) l)

let num = function Json.Float f -> f | Json.Int i -> float_of_int i | _ -> nan

let to_floats j = List.map num (Option.value ~default:[] (Json.to_list j))

let member k j =
  match Json.member k j with Some v -> v | None -> failwith ("missing field " ^ k)

(* --- worker process: set up, then run operations for the time given --- *)

let worker a =
  let setup = Compute.setup_times ~samples:Report.setup_starts a.workload in
  let st = Compute.setup a.workload in
  let timed f =
    let t0 = now () in
    let r = f () in
    ((now () -. t0) *. 1000., r)
  in
  let errors = ref [] and attempted = ref 0 in
  let untraced = ref [] and traced = ref [] in
  let attempt f push =
    (* every operation starts from a collected heap, as it would in a
       fresh process, so one operation's garbage does not slow the
       next by a varying amount *)
    Gc.full_major ();
    incr attempted;
    let ms, r = timed (fun () -> try f () with e -> Error (Printexc.to_string e)) in
    match r with Ok v -> push (ms, v) | Error e -> errors := e :: !errors
  in
  (* a traced run alternates untraced and traced operations, so the
     tracing overhead is not confounded with warm-up *)
  let stop = now () +. float_of_int a.seconds in
  let rec loop i =
    if a.trace && i mod 2 = 1 then
      attempt (fun () -> Compute.traced_op st) (fun x -> traced := x :: !traced)
    else
      attempt
        (fun () -> Result.map (fun () -> []) (Compute.op st))
        (fun x -> untraced := x :: !untraced);
    if now () < stop || (a.trace && i < 1) then loop (i + 1)
  in
  loop 0;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let layers =
    match traced with
    | [] -> []
    | (_, first) :: _ ->
        List.map
          (fun (k, _) -> (k, Stats.median (List.map (fun (_, l) -> List.assoc k l) traced)))
          first
  in
  let layers =
    if traced = [] || untraced = [] then layers
    else
      ( "trace.overhead_ms",
        Stats.median (List.map fst traced) -. Stats.median (List.map fst untraced) )
      :: layers
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("setup_s", json_floats setup);
            ("samples_ms", json_floats (List.map fst untraced));
            ("attempted", Json.Int !attempted);
            ("errors", Json.List (List.map (fun e -> Json.Str e) (List.rev !errors)));
            ("rss_mb", Json.Float (Host.peak_rss_mb "self"));
            ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) layers));
          ]))

(* Run this executable with [args] and return its standard output. *)
let run_self args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> out
  | _ -> failwith "a worker process failed"

let op_metric = function
  | "search-n8" -> "search_s"
  | "cert-n6" -> "cert_s"
  | "shuffle-n8" -> "shuffle_s"
  | w -> failwith ("no operation metric for " ^ w)

let compute a =
  let out =
    run_self
      [ "worker"; "--workload"; a.workload; "--seconds"; string_of_int a.seconds;
        "--trace"; (if a.trace then "1" else "0") ]
  in
  let j =
    match Json.of_string (String.trim out) with
    | Ok j -> j
    | Error e -> failwith ("unreadable worker result: " ^ e)
  in
  let samples = to_floats (member "samples_ms" j) in
  let errors = List.filter_map Json.to_str (Option.value ~default:[] (Json.to_list (member "errors" j))) in
  let layers =
    match member "layers" j with
    | Json.Obj kv -> List.map (fun (k, v) -> (k, num v)) kv
    | _ -> []
  in
  let secs = Stats.summarize (if samples = [] then [ nan ] else List.map (fun ms -> ms /. 1000.) samples) in
  { Report.setup = to_floats (member "setup_s" j);
    op_ms = List.fold_left Float.min Float.infinity samples;
    rss_mb = num (member "rss_mb" j);
    attempted = Option.value ~default:0 (Json.to_int (member "attempted" j));
    failed = List.length errors;
    errors;
    lines = [];
    e2e =
      [ (op_metric a.workload, "s", Stats.pp_summary ~unit:"s" secs) ];
    layers;
  }

let run spec a =
  if not (List.mem a.workload spec.Spec.workloads) then
    failwith
      (Printf.sprintf "--workload must be one of: %s"
         (String.concat ", " spec.Spec.workloads));
  let r =
    if a.workload = "serve-mix" then
      Serve_mix.run ~snlb:a.snlb ~seed:a.seed ~seconds:a.seconds ~traced:a.trace
    else compute a
  in
  let domains = Compute.domains_used a.workload in
  let extra =
    if a.workload = "serve-mix" then
      [ ("serve_ladder_rps", json_floats Serve_mix.ladder);
        ("serve_limit_ms", Json.Float Serve_mix.limit_ms);
        ("serve_connections", Json.Int Serve_mix.connections) ]
    else []
  in
  let host =
    Host.record ~workload:a.workload ~seed:a.seed ~seconds:a.seconds ~traced:a.trace
      ~domains extra
  in
  Report.print ~spec ~host ~traced:a.trace r

(* Every workload in its own process, one after the other, each
   printing its full report. *)
let all spec a =
  List.iter
    (fun w ->
      Printf.printf "== %s\n%!" w;
      let exe = Sys.executable_name in
      let args =
        [ exe; "--workload"; w; "--seed"; string_of_int a.seed; "--seconds";
          string_of_int a.seconds; "--trace"; (if a.trace then "1" else "0");
          "--snlb"; a.snlb ]
      in
      let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith (w ^ " failed"))
    spec.Spec.workloads

let () =
  match parse_args () with
  | exception Failure e ->
      prerr_endline ("perfbench: " ^ e);
      exit 2
  | a -> (
      try
        let spec () = Report.get (Spec.load ()) in
        match a.mode with
        | "worker" -> worker a
        | "all" -> all (spec ()) a
        | _ -> run (spec ()) a
      with Failure e | Sys_error e ->
        prerr_endline ("perfbench: " ^ e);
        exit 1)
