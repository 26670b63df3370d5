(* Golden files for the exact search: a search outcome rendered as
   stable text, and lookup of recorded renderings under [golden/].

   The recorded files hold the outcome, depth, witness, every decision
   counter and the per-level frontier sizes of fixed runs of the free
   search (pruned and reference systems) and of the shuffle search of
   [Min_depth], plus the digest of one exhaustion certificate. Wall and
   CPU times are not recorded: they are the only fields that may move.

   File format: a run is a line [run <key>] followed by its rendering;
   the next [run] line or the end of the file closes it. *)

let pp_layer layer =
  String.concat "" (List.map (fun (i, j) -> Printf.sprintf "(%d,%d)" i j) layer)

let pp_ops ops =
  String.concat ""
    (Array.to_list
       (Array.map
          (function
            | Register_model.Plus -> "+"
            | Register_model.Minus -> "-"
            | Register_model.Zero -> "0"
            | Register_model.One -> "1")
          ops))

let render_stats (s : Driver.stats) =
  Printf.sprintf
    "nodes=%d pruned=%d deduped=%d subsumed=%d redundant=%d peak_frontier=%d \
     completed_levels=%d frontier_sizes=[%s]"
    s.Driver.nodes s.Driver.pruned s.Driver.deduped s.Driver.subsumed
    s.Driver.redundant s.Driver.peak_frontier s.Driver.completed_levels
    (String.concat "," (List.map string_of_int s.Driver.frontier_sizes))

let render pp_move = function
  | Driver.Sorted { depth; moves; stats } ->
      Printf.sprintf "sorted depth=%d\nwitness %s\nstats %s" depth
        (String.concat " " (List.map pp_move moves))
        (render_stats stats)
  | Driver.Unsorted stats -> "unsorted\nstats " ^ render_stats stats
  | Driver.Inconclusive stats -> "inconclusive\nstats " ^ render_stats stats
  | Driver.Interrupted stats -> "interrupted\nstats " ^ render_stats stats

let render_layers = render pp_layer
let render_shuffle = render pp_ops

(* --- the recorded runs --- *)

(* Free search, pruned system (subsumption dedup, redundant-move hook):
   [(n, max_depth, node budget)]. *)
let pruned_runs =
  [ (4, 4, None); (5, 5, None); (6, 6, None); (7, 7, None); (8, 8, None);
    (7, 6, None); (8, 6, None); (6, 6, Some 120) ]

(* Free search, reference system (every layer, equality dedup). *)
let reference_runs = [ (4, 4, None); (5, 5, None); (6, 6, None); (6, 4, None) ]

(* Shuffle search: [(n, max_depth, node budget)]. *)
let shuffle_runs =
  [ (2, 2, None); (4, 2, None); (4, 4, None); (8, 3, None); (8, 4, None);
    (8, 5, Some 50) ]

let key ~n ~max_depth budget =
  Printf.sprintf "n=%d max_depth=%d%s" n max_depth
    (match budget with Some b -> Printf.sprintf " budget=%d" b | None -> "")

let budget_of = function
  | Some max_nodes -> { Driver.max_nodes; max_seconds = None }
  | None -> Driver.default_budget

(* --- reading --- *)

(* [dune runtest] runs the tests in the test directory; [dune exec
   test/test_search.exe] from the repository root *)
let dir = if Sys.file_exists "golden" then "golden" else Filename.concat "test" "golden"

let load file =
  let ic = open_in (Filename.concat dir file) in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let flush key body acc =
    match key with
    | Some k -> (k, String.concat "\n" (List.rev body)) :: acc
    | None -> acc
  in
  let rec split key body acc = function
    | [] -> List.rev (flush key body acc)
    | l :: rest when String.length l > 4 && String.sub l 0 4 = "run " ->
        split (Some (String.sub l 4 (String.length l - 4))) [] (flush key body acc) rest
    | l :: rest -> split key (l :: body) acc rest
  in
  split None [] [] lines

let find file k =
  match List.assoc_opt k (load file) with
  | Some v -> v
  | None -> Alcotest.failf "golden/%s has no run %S" file k

(* [check file k rendered] fails unless [rendered] is the recorded
   rendering of run [k]. *)
let check file k rendered =
  Alcotest.(check string) (Printf.sprintf "%s: %s" file k) (find file k) rendered
