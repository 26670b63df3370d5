(* The three compute workloads: exact search, certified optimality and
   the shuffle-based refutation. Each runs in a worker process of its
   own; [setup] is what a user pays before the first operation can
   start, [op] is one operation with its answer check, and [traced_op]
   is the same operation instrumented from outside [lib/]. *)

let now = Unix.gettimeofday

(* search-n8: the free-layer optimal-depth search with subsumption and
   the redundant-move hook, on the arena engine with one domain. *)
let search_n = 8
let search_depth = 6

(* cert-n6: the certified-optimality path of [snlb search --emit-cert]
   followed by [snlb check]. *)
let cert_n = 6
let cert_depth = 5

(* shuffle-n8: the paper's shuffle-based class on two domains. *)
let shuffle_n = 8
let shuffle_depth = 4
let shuffle_domains = 2

type state =
  | Search of Driver.layer Driver.system
  | Cert of Driver.layer Driver.system
  | Shuffle

let domains_used = function
  | "shuffle-n8" -> shuffle_domains
  | _ -> 1

let shuffle_run ?sink ?(depth = shuffle_depth) () =
  Min_depth.search ~n:shuffle_n ~depth ~domains:shuffle_domains ?sink ()

(* The system construction a user pays before the first operation.
   [Min_depth] has no construction step apart from the search call, so
   shuffle-n8's is a depth-0 search: it builds the move set and the
   initial state the real search builds, and stops before level 1. *)
let setup = function
  | "search-n8" -> Search (Driver.network_system ~n:search_n ())
  | "cert-n6" -> Cert (Driver.network_system ~restrict:false ~n:cert_n ())
  | "shuffle-n8" -> (
      match shuffle_run ~depth:0 () with
      | Min_depth.Impossible -> Shuffle
      | _ -> failwith "shuffle-n8: a depth-0 search must be refuted")
  | w -> invalid_arg ("Compute.setup: not a compute workload: " ^ w)

(* [samples] set-up times of workload [w], in seconds. The smaller
   constructions take microseconds, so each sample times a batch of
   set-ups, as many as reach [batch_s] together, and divides. *)
let batch_s = 0.02

let setup_times ~samples w =
  let batch k =
    let t0 = now () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (setup w))
    done;
    now () -. t0
  in
  let rec calibrate k = if k >= 1 lsl 20 || batch k >= batch_s then k else calibrate (2 * k) in
  let k = calibrate 1 in
  List.init samples (fun _ -> batch k /. float_of_int k)

let check cond what = if cond then Ok () else Error what

let ( let* ) = Result.bind

let search_answer = function
  | Driver.Sorted { depth; moves; _ } ->
      let* () =
        check (depth = search_depth)
          (Printf.sprintf "search-n8: depth %d, expected %d" depth search_depth)
      in
      check
        (Driver.verify_witness ~n:search_n moves)
        "search-n8: witness does not sort"
  | _ -> Error "search-n8: no sorting network found"

(* The cert pipeline, with each public call timed separately. *)
let cert_pipeline ?sink sys =
  let frontiers = ref [] in
  let frontier_log ~level:_ states = frontiers := states :: !frontiers in
  let t0 = now () in
  let outcome = Driver.run ?sink ~frontier_log ~max_depth:cert_n sys in
  let t_search = now () in
  let frontiers = List.rev !frontiers in
  let* depth, moves =
    match outcome with
    | Driver.Sorted { depth; moves; _ } -> Ok (depth, moves)
    | _ -> Error "cert-n6: the reference search found no sorter"
  in
  let* () =
    check (depth = cert_depth)
      (Printf.sprintf "cert-n6: depth %d, expected %d" depth cert_depth)
  in
  let* exhausted =
    Cert_emit.exhaustion ~n:cert_n ~max_depth:(depth - 1) ~frontiers
  in
  let* sorted = Analysis_cert.sortedness (Driver.witness_network ~n:cert_n moves) in
  let t_emit = now () in
  let text = String.concat "\n" (List.map Cert.to_string [ exhausted; sorted ]) in
  let t_print = now () in
  let* parsed =
    Result.map_error (fun e -> "cert-n6: parse: " ^ e.Cert.reason) (Cert.parse text)
  in
  let t_parse = now () in
  let* () =
    Result.map_error
      (fun e -> "cert-n6: checker rejects: " ^ e.Cert.reason)
      (Cert.check_all parsed)
  in
  let t_check = now () in
  let* () = check (List.length parsed = 2) "cert-n6: expected 2 certificates" in
  let states = List.fold_left (fun a l -> a + List.length l) 0 frontiers in
  Ok
    [ ("cert.search_s", t_search -. t0);
      ("cert.emit_s", t_emit -. t_search);
      ("cert.print_s", t_print -. t_emit);
      ("cert.parse_s", t_parse -. t_print);
      ("cert.check_s", t_check -. t_parse);
      ("cert.bytes", float_of_int (String.length text));
      ("cert.frontier_states", float_of_int states);
    ]

let shuffle_answer = function
  | Min_depth.Impossible -> Ok ()
  | _ -> Error "shuffle-n8: expected Impossible"

let op = function
  | Search sys ->
      search_answer (Driver.run ~engine:`Arena ~domains:1 ~max_depth:search_n sys)
  | Cert sys -> Result.map ignore (cert_pipeline sys)
  | Shuffle -> shuffle_answer (shuffle_run ())

(* --- tracing from outside the library --- *)

let field name (e : Sink.event) =
  match List.assoc_opt name e.Sink.fields with
  | Some (Sink.Float f) -> f
  | Some (Sink.Int i) -> float_of_int i
  | _ -> 0.

let levels events =
  List.filter (fun (e : Sink.event) -> e.Sink.name = "search/level") events

(* Per-level wall time, the level spans' totals, and the counts of the
   closing "search" span. *)
let search_layers events =
  let lv = levels events in
  let per_level =
    List.fold_left
      (fun acc e ->
        let k = Printf.sprintf "search.level_s.%d" (int_of_float (field "level" e)) in
        let prev = Option.value (List.assoc_opt k acc) ~default:0. in
        (k, prev +. field "wall_s" e) :: List.remove_assoc k acc)
      [] lv
    |> List.rev
  in
  let wall = List.fold_left (fun a e -> a +. field "wall_s" e) 0. lv in
  let cpu = List.fold_left (fun a e -> a +. field "cpu_s" e) 0. lv in
  let total =
    List.find_opt (fun (e : Sink.event) -> e.Sink.name = "search") events
  in
  let tot k = match total with Some e -> field k e | None -> 0. in
  let nodes = tot "nodes" and deduped = tot "deduped" and pruned = tot "pruned" in
  let subsumed = tot "subsumed" and redundant = tot "redundant" in
  let ratio a b = if b > 0. then a /. b else 0. in
  ( wall,
    cpu,
    per_level
    @ [ ("search.nodes", nodes);
        ("search.deduped", deduped);
        ("search.subsumed", subsumed);
        ("search.pruned", pruned);
        ("search.redundant", redundant);
        ("search.frontier_peak", tot "peak_frontier");
        ("search.nodes_per_s", ratio nodes wall);
        ("search.subsume_ratio", ratio subsumed (nodes -. deduped -. pruned));
        ("analysis.redundant_skip_ratio", ratio redundant (redundant +. nodes));
      ] )

let arena_counters = [ "arena.probes"; "arena.collisions"; "arena.resizes"; "arena.bytes" ]

let counter_values () =
  let all = Metrics.counters () in
  List.map
    (fun k -> (k, float_of_int (Option.value (List.assoc_opt k all) ~default:0)))
    arena_counters

let gc_values () =
  let s = Gc.quick_stat () in
  [ ("gc.minor_collections", float_of_int s.Gc.minor_collections);
    ("gc.major_collections", float_of_int s.Gc.major_collections);
    ("gc.promoted_words", s.Gc.promoted_words);
  ]

let delta a b = List.map2 (fun (k, x) (_, y) -> (k, y -. x)) a b

(* Times the redundant-move hook: both the closure made once per
   expanded state and the test made per move. *)
let timed_hook ~spent ~calls (sys : Driver.layer Driver.system) =
  let redundant_of ~level st =
    let t0 = now () in
    let test = sys.Driver.redundant_of ~level st in
    spent := !spent +. (now () -. t0);
    incr calls;
    fun m ->
      let t0 = now () in
      let r = test m in
      spent := !spent +. (now () -. t0);
      incr calls;
      r
  in
  { sys with Driver.redundant_of }

(* One instrumented operation: the answer check plus its layer
   metrics. *)
let traced_op st =
  let sink, read = Sink.memory () in
  let c0 = counter_values () and g0 = gc_values () in
  let hook_s = ref 0. and hook_calls = ref 0 in
  let* extra =
    match st with
    | Search sys ->
        let sys = timed_hook ~spent:hook_s ~calls:hook_calls sys in
        search_answer (Driver.run ~engine:`Arena ~domains:1 ~sink ~max_depth:search_n sys)
        |> Result.map (fun () -> [])
    | Cert sys -> cert_pipeline ~sink sys
    | Shuffle -> Result.map (fun () -> []) (shuffle_answer (shuffle_run ~sink ()))
  in
  let c1 = counter_values () and g1 = gc_values () in
  let wall, cpu, search = search_layers (read ()) in
  let nodes = List.assoc "search.nodes" search and pruned = List.assoc "search.pruned" search in
  let shuffle_only v = match st with Shuffle -> v | _ -> 0. in
  let cpu_per_wall = if wall > 0. then cpu /. wall else 0. in
  Ok
    (search @ extra
    @ delta c0 c1 @ delta g0 g1
    @ [ ("search.arena_self_s", match st with Shuffle -> 0. | _ -> wall -. !hook_s);
        ("analysis.redundant_s", !hook_s);
        ("analysis.redundant_calls", float_of_int !hook_calls);
        ("min_depth.prune_ratio", shuffle_only (if nodes > 0. then pruned /. nodes else 0.));
        ("par.cpu_per_wall", shuffle_only cpu_per_wall);
        ("par.efficiency", shuffle_only (cpu_per_wall /. float_of_int shuffle_domains));
      ])
