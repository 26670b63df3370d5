type budget = { max_nodes : int; max_seconds : float option }

let default_budget = { max_nodes = 200_000_000; max_seconds = None }

type stats = {
  nodes : int;
  pruned : int;
  deduped : int;
  subsumed : int;
  redundant : int;
  frontier_sizes : int list;
  peak_frontier : int;
  completed_levels : int;
  elapsed : float;
  elapsed_cpu : float;
}

type 'm outcome =
  | Sorted of { depth : int; moves : 'm list; stats : stats }
  | Unsorted of stats
  | Inconclusive of stats
  | Interrupted of stats

type dedup = Equal | Subsume

type 'm system = {
  n : int;
  tag : string;
  initial : State.t;
  moves_at : level:int -> 'm list;
  stage : 'm -> Arena.stage;
  prune : level:int -> remaining:int -> State.t -> bool;
  redundant_of : level:int -> State.t -> 'm -> bool;
  dedup : dedup;
}

type engine = [ `Arena ]

let no_prune ~level:_ ~remaining:_ _ = false
let no_redundant ~level:_ _ _ = false

(* Cumulative global counters, surfaced by --metrics / bench-json. *)
let c_nodes = Metrics.counter "search.nodes"
let c_pruned = Metrics.counter "search.pruned"
let c_deduped = Metrics.counter "search.deduped"
let c_subsumed = Metrics.counter "search.subsumed"
let c_levels = Metrics.counter "search.levels"

(* The static-analysis pruning hook lives under the analyzer's counter
   namespace: these are redundancy facts (lib/analysis Reach domain)
   consumed by the search. *)
let c_redundant = Metrics.counter "analysis.redundant_moves"
let c_ckpt_failures = Metrics.counter "checkpoint.failures"
let c_resumes = Metrics.counter "checkpoint.resumes"

(* --- the frontier format: little-endian int64 fields around {!Arena}
   row blocks; reading raises [Malformed] on anything short, overlong or
   out of range --- *)

exception Malformed of string

let add_int buf v = Buffer.add_int64_le buf (Int64.of_int v)

type reader = { s : string; mutable pos : int }

let below r what bound =
  if r.pos > String.length r.s - 8 then raise (Malformed "truncated");
  let v = Int64.to_int (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  if v < 0 || v >= bound then
    raise (Malformed (Printf.sprintf "%s %d not in [0, %d)" what v bound));
  v

(* [count] fields, by default as many as a leading count says, in order *)
let ints r what ?(count = below r "count" max_int) bound =
  List.init count (fun _ -> below r what bound)

let read_rows r arena f =
  match Arena.decode_rows arena r.s ~pos:r.pos f with
  | Ok p -> r.pos <- p
  | Error e -> raise (Malformed e)

(* --- the per-entry step --- *)

type tally = { found : int option; pruned : int; redundant : int; live : int }

(* Expand committed row [pidx] by every move of [moves] (the level's
   moves, indexed as in [sys.moves_at]) the redundancy hook keeps, in
   move order. [charge live] is asked before any move is applied;
   [false] (the budget tripped) abandons the entry with [None], its
   redundancy tally unreported. Each child that is neither sorted nor
   pruned is handed to [emit k], [k] its move's index, while it sits
   in the staging row. A sorted child ends the entry: later moves are
   never applied. *)
let expand_row sys arena ~level ~max_depth ~moves ~charge ~emit pidx =
  let is_red =
    if sys.redundant_of == no_redundant then fun _ -> false
    else sys.redundant_of ~level (Arena.to_state arena pidx)
  in
  let all = List.init (Array.length moves) Fun.id in
  let live = List.filter (fun k -> not (is_red moves.(k))) all in
  let nlive = List.length live in
  if not (charge nlive) then None
  else begin
    let remaining = max_depth - level in
    let pruned = ref 0 in
    let rec go = function
      | [] -> None
      | k :: rest ->
          Arena.stage_child arena ~parent:pidx (sys.stage moves.(k));
          if Arena.staged_is_sorted arena then Some k
          else begin
            (* children of the last level are only tested for
               sortedness: nothing would expand them *)
            if remaining > 0 then
              if
                sys.prune != no_prune
                && sys.prune ~level ~remaining (Arena.staged_state arena)
              then incr pruned
              else emit k;
            go rest
          end
    in
    let found = go live in
    let redundant = Array.length moves - nlive in
    Some { found; pruned = !pruned; redundant; live = nlive }
  end

let commit_staged arena = match Arena.commit arena with `Fresh i | `Dup i -> i

(* A shard unit: the level, then the slice's rows as one block. *)
let encode_unit arena ~level rows =
  let buf = Buffer.create 4096 in
  add_int buf level;
  Arena.encode_rows arena buf rows;
  Buffer.contents buf

(* A result holds per entry: pruned, redundant, live, 1 + the sorted
   child's move index (0 for none), the surviving children's move
   indices (count first), then their rows as one block. *)
let expand_entries sys ~max_depth payload =
  let arena = Arena.create ~with_sigs:false ~n:sys.n () in
  let r = { s = payload; pos = 0 } and parents = ref [] in
  let level = below r "level" max_int in
  read_rows r arena (fun _ -> parents := commit_staged arena :: !parents);
  if r.pos < String.length r.s then raise (Malformed "trailing bytes");
  let moves = Array.of_list (sys.moves_at ~level) in
  let buf = Buffer.create 4096 in
  let rec go = function
    | [] -> ()
    | pidx :: rest -> (
        let kids = ref [] in
        let emit k = kids := (k, commit_staged arena) :: !kids in
        match
          expand_row sys arena ~level ~max_depth ~moves
            ~charge:(fun _ -> true)
            ~emit pidx
        with
        | None -> assert false (* charge never refuses *)
        | Some t ->
            let kids = List.rev !kids in
            List.iter (add_int buf)
              ([ t.pruned; t.redundant; t.live;
                 Option.fold t.found ~none:0 ~some:succ; List.length kids ]
              @ List.map fst kids);
            Arena.encode_rows arena buf (List.map snd kids);
            if t.found = None then go rest)
  in
  go (List.rev !parents);
  Buffer.contents buf

(* --- checkpoint / resume --- *)

(* -3: [encode_boundary]'s payload; -2 held boxed states and moves. Other
   kinds are refused: rerunning is sound, an unknown layout never is. *)
let checkpoint_kind = "snlb-search-driver-3"

(* The boundary before level L, all run needs to go on as if it never
   stopped: seven counts (the five totals, then the wall and CPU ns
   spent), the L - 1 frontier sizes, every committed row (one block),
   the kept rows by ascending card (count first) and the frontier
   (count first): per entry its row and L - 1 move indices, level 1
   first. *)
let encode_boundary arena counts sizes kept frontier =
  let rows = List.init (Arena.length arena) Fun.id in
  (* sized exactly: at n = 9 the rows alone are tens of MB *)
  let ints = List.fold_left (fun a (_, p) -> a + 1 + List.length p) 9 frontier in
  let ints = ints + List.length sizes + List.length kept in
  let row_bytes = max 8 ((1 lsl Arena.n arena) / 8) in
  let buf = Buffer.create ((8 * ints) + 12 + (List.length rows * row_bytes)) in
  List.iter (add_int buf) (counts @ List.rev sizes);
  Arena.encode_rows arena buf rows;
  List.iter (add_int buf) (List.length kept :: kept);
  add_int buf (List.length frontier);
  List.iter
    (fun (idx, pre) -> List.iter (add_int buf) (idx :: List.rev pre))
    frontier;
  Buffer.contents buf

type resume_state = Checkpoint.t

let meta (ck : resume_state) k =
  Option.value (List.assoc_opt k ck.meta) ~default:"?"

(* The meta a run writes, less the level: a snapshot is only trusted
   when all of it matches the run it is resumed into. The completed
   levels of a different max_depth were explored under a different
   prune budget, a different dedup mode keeps a different frontier,
   and a different move tag is a different search entirely. *)
let compat_meta ~max_depth sys =
  [ ("tag", sys.tag);
    ("n", string_of_int sys.n);
    ("max_depth", string_of_int max_depth);
    ("dedup", match sys.dedup with Equal -> "equal" | Subsume -> "subsume") ]

let resume ~path =
  match Checkpoint.load ~path with
  | Error _ as e -> e
  | Ok (ck, source) ->
      (match source with
      | `Primary -> ()
      | `Backup reason ->
          Printf.eprintf
            "snlb: falling back to checkpoint backup %s (%s)\n%!"
            (Atomic_file.backup_path path) reason);
      if ck.Checkpoint.kind = checkpoint_kind then Ok ck
      else
        Error
          (Printf.sprintf "checkpoint %s holds a %S snapshot, not a %S one"
             path ck.Checkpoint.kind checkpoint_kind)

let describe ck =
  Printf.sprintf "%s search, n=%s, max_depth=%s, next level %s" (meta ck "tag")
    (meta ck "n") (meta ck "max_depth") (meta ck "level")

(* The snapshot's boundary, its rows committed into the empty [arena].
   On [Error] (a key differs from this run's, or the payload does not
   decode) the caller discards the arena and starts fresh. *)
let restore ~max_depth sys arena ck =
  let r = { s = ck.Checkpoint.payload; pos = 0 } in
  let level = Option.value (int_of_string_opt (meta ck "level")) ~default:0 in
  let differs (k, v) = meta ck k <> v in
  match List.find_opt differs (compat_meta ~max_depth sys) with
  | Some (k, v) ->
      Error (Printf.sprintf "checkpoint %s=%s, this search %s" k (meta ck k) v)
  | None -> (
      try
        if level < 1 || level > max_depth + 1 then raise (Malformed "level");
        let counts = ints r "count" ~count:7 max_int in
        let sizes = List.rev (ints r "size" ~count:(level - 1) max_int) in
        read_rows r arena (fun _ ->
            match Arena.commit arena with
            | `Fresh _ -> ()
            | `Dup _ -> raise (Malformed "duplicate row"));
        let rows = Arena.length arena in
        let kept = ints r "kept row" rows in
        let moves_at j = List.length (sys.moves_at ~level:(j + 1)) in
        let moves = List.init (level - 1) moves_at in
        (* [List.rev_map] also reads left to right, and reverses the prefix *)
        let entry _ =
          let idx = below r "frontier row" rows in
          (idx, List.rev_map (below r "move index") moves)
        in
        let frontier = List.init (below r "frontier count" (rows + 1)) entry in
        if r.pos < String.length r.s then raise (Malformed "trailing bytes");
        Ok (level, (counts, sizes, kept, frontier))
      with Malformed e -> Error ("malformed payload: " ^ e))

(* the cumulative counts a run reports per level and at the end *)
let total_names = [ "nodes"; "pruned"; "deduped"; "subsumed"; "redundant" ]

let run ?domains:_ ?engine:_ ?(budget = default_budget) ?(sink = Sink.null)
    ?on_level ?frontier_log ?cancel ?checkpoint ?resume:resume_from ?expand
    ~max_depth sys =
  if max_depth < 0 then invalid_arg "Driver.run: max_depth must be >= 0";
  (* The store: every state the search has seen is a row of one
     {!Arena} (flat int64 rows + open addressing, no boxed keys), and
     the subsumption representatives are arena indices kept sorted by
     ascending cardinality: a rep can only subsume candidates of >= its
     card (subsumption maps the reachable set injectively), so the scan
     for a candidate cuts off at the first larger card. *)
  let arena = Arena.create ~with_sigs:(sys.dedup = Subsume) ~n:sys.n () in
  (* a validated boundary, its rows already committed in their original
     order (so every index in it is valid), or a fresh start *)
  let level, (counts, sizes, kept, frontier) =
    let fresh () =
      Arena.truncate arena 0;
      Arena.stage_state arena sys.initial;
      (1, (List.init 7 (fun _ -> 0), [], [], [ (commit_staged arena, []) ]))
    in
    match resume_from with
    | None -> fresh ()
    | Some rs -> (
        match restore ~max_depth sys arena rs with
        | Ok b ->
            Metrics.incr c_resumes;
            b
        | Error why ->
            Printf.eprintf
              "snlb: ignoring incompatible checkpoint (%s); starting fresh\n%!"
              why;
            fresh ())
  in
  (* the frontier: arena rows with their reversed move-index prefixes *)
  let level = ref level and sizes = ref sizes and frontier = ref frontier in
  let count i = ref (List.nth counts i) in
  let nodes = count 0 and pruned_total = count 1 and deduped_total = count 2 in
  let subsumed_total = count 3 and redundant_total = count 4 in
  let w0 = Clock.wall () -. (float (List.nth counts 5) *. 1e-9) in
  let cpu0 = Clock.cpu () -. (float (List.nth counts 6) *. 1e-9) in
  let totals () =
    [ !nodes; !pruned_total; !deduped_total; !subsumed_total; !redundant_total ]
  in
  let over_budget = ref false in
  let interrupted = ref false in
  let cancelled () =
    (match cancel with Some t -> Cancel.cancelled t | None -> false)
    || !interrupted
  in
  let mk_stats completed =
    { nodes = !nodes;
      pruned = !pruned_total;
      deduped = !deduped_total;
      subsumed = !subsumed_total;
      redundant = !redundant_total;
      frontier_sizes = List.rev !sizes;
      peak_frontier = List.fold_left max 0 !sizes;
      completed_levels = completed;
      elapsed = Clock.wall () -. w0;
      elapsed_cpu = Clock.cpu () -. cpu0 }
  in
  (* Checkpoints are cut at level boundaries — the only points where
     the loop state is a consistent prefix of the search. [interval]
     throttles the writes; the latest unwritten boundary payload is
     retained so an interruption can flush it. *)
  let ckpt_path, ckpt_interval =
    match checkpoint with
    | Some (p, i) -> (Some p, max 0. i)
    | None -> (None, 0.)
  in
  (* the cadence clock starts now: the first on-cadence write falls
     due one full interval into the run, so short runs don't pay for
     a write they'll never need (an interruption flushes regardless) *)
  let last_write = ref (Clock.wall ()) in
  let pending : (unit -> string * int) option ref = ref None in
  let flush_payload mk =
    let payload, boundary_level = mk () in
    match ckpt_path with
    | None -> ()
    | Some path -> (
        match
          Checkpoint.write ~path
            { Checkpoint.kind = checkpoint_kind;
              meta =
                compat_meta ~max_depth sys
                @ [ ("level", string_of_int boundary_level) ];
              payload }
        with
        | Ok () ->
            last_write := Clock.wall ();
            pending := None
        | Error e ->
            Metrics.incr c_ckpt_failures;
            Printf.eprintf
              "snlb: checkpoint write failed (%s); search continues\n%!" e)
  in
  let kept_idx = ref (Array.make 256 0) in
  let kept_card = ref (Array.make 256 0) in
  let kept_len = ref 0 in
  let kept_insert idx =
    if !kept_len = Array.length !kept_idx then begin
      let grow a =
        let a' = Array.make (2 * Array.length a) 0 in
        Array.blit a 0 a' 0 (Array.length a);
        a'
      in
      kept_idx := grow !kept_idx;
      kept_card := grow !kept_card
    end;
    let c = Arena.card arena idx in
    let lo = ref 0 and hi = ref !kept_len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if (!kept_card).(mid) <= c then lo := mid + 1 else hi := mid
    done;
    let pos = !lo in
    Array.blit !kept_idx pos !kept_idx (pos + 1) (!kept_len - pos);
    Array.blit !kept_card pos !kept_card (pos + 1) (!kept_len - pos);
    (!kept_idx).(pos) <- idx;
    (!kept_card).(pos) <- c;
    incr kept_len
  in
  let kept_subsumes cand =
    let c = Arena.card arena cand in
    let k = ref 0 and hit = ref false in
    while (not !hit) && !k < !kept_len && (!kept_card).(!k) <= c do
      if Arena.subsumes arena (!kept_idx).(!k) cand then hit := true;
      incr k
    done;
    !hit
  in
  (* saved in array order, so re-inserting rebuilds the array *)
  List.iter kept_insert kept;
  let result = ref None in
  (* last completed boundary's row count: an interrupted level's
     commits are truncated back to it before the final flush *)
  let boundary_len = ref (Arena.length arena) in
  (* Capture the boundary NOW but encode lazily, at flush time: the
     scalars are pinned eagerly, the structures (arena rows, kept,
     frontier) only change at the next boundary — which installs a
     fresh thunk first. Skipped boundaries therefore cost a closure,
     not an encoding of the whole search state. *)
  let snapshot_payload () =
    let ns x = Float.to_int (x *. 1e9) in
    let lvl = !level and sizes = !sizes in
    let spent = [ ns (Clock.wall () -. w0); ns (Clock.cpu () -. cpu0) ] in
    let counts = totals () @ spent in
    fun () ->
      ( encode_boundary arena counts sizes
          (List.init !kept_len (fun k -> (!kept_idx).(k)))
          !frontier,
        lvl )
  in
  (* nodes are charged per entry, before its moves are applied *)
  let charge live =
    nodes := !nodes + live;
    let timed_out =
      match budget.max_seconds with
      | Some s -> Clock.wall () -. w0 > s
      | None -> false
    in
    if !nodes > budget.max_nodes || timed_out then begin
      over_budget := true;
      false
    end
    else true
  in
  (* One level: expand every frontier entry in order, committing each
     surviving child (equality dedup against every row ever committed);
     then, under subsumption dedup, filter the fresh rows against the
     kept representatives in ascending-cardinality order. Returns the
     surviving frontier width, and sets [result] when the level ends
     the search instead. *)
  let step lvl =
    let moves = Array.of_list (sys.moves_at ~level:lvl) in
    let candidates = ref [] in
    (* equality-dup hits are folded in only when the level completes *)
    let level_deduped = ref 0 in
    let commit pre =
      match Arena.commit arena with
      | `Fresh idx -> candidates := (idx, pre) :: !candidates
      | `Dup _ -> incr level_deduped
    in
    let found = ref None in
    let account pre t =
      redundant_total := !redundant_total + t.redundant;
      pruned_total := !pruned_total + t.pruned;
      match t.found with
      | Some k ->
          found := Some (k :: pre);
          raise Exit
      | None -> ()
    in
    (try
       match expand with
       | None ->
           List.iter
             (fun (pidx, pre) ->
               if cancelled () then raise Exit;
               match
                 expand_row sys arena ~level:lvl ~max_depth ~moves ~charge
                   ~emit:(fun k -> commit (k :: pre))
                   pidx
               with
               | None -> raise Exit
               | Some t -> account pre t)
             !frontier
       | Some f ->
           (* expanded elsewhere: the results are replayed entry by
              entry, in global entry order, each child's prefix built
              from its entry's *)
           let nmoves = Array.length moves in
           let rec replay r = function
             | entries when r.pos = String.length r.s -> entries
             | [] -> raise (Malformed "more entries than the frontier")
             | (_, pre) :: entries ->
                 let pruned = below r "tally" max_int in
                 let redundant = below r "tally" max_int in
                 let live = below r "tally" max_int in
                 let found = below r "sorted move" (nmoves + 1) - 1 in
                 let found = if found < 0 then None else Some found in
                 let kids = Array.of_list (ints r "move index" nmoves) in
                 if cancelled () || not (charge live) then raise Exit;
                 account pre { found; pruned; redundant; live };
                 let seen = ref 0 in
                 read_rows r arena (fun k ->
                     if k < Array.length kids then commit (kids.(k) :: pre);
                     seen := k + 1);
                 if !seen <> Array.length kids then
                   raise (Malformed "rows and moves differ");
                 replay r entries
           in
           f ~level:lvl ~unit_of:(encode_unit arena ~level:lvl)
             (List.map fst !frontier)
           |> List.fold_left (fun es s -> replay { s; pos = 0 } es) !frontier
           |> ignore
     with Exit -> ());
    match !found with
    | Some rev_moves ->
        result :=
          Some
            (Sorted
               { depth = lvl;
                 moves =
                   List.mapi
                     (fun i k -> List.nth (sys.moves_at ~level:(i + 1)) k)
                     (List.rev rev_moves);
                 stats = mk_stats (lvl - 1) });
        0
    | None when !over_budget ->
        result := Some (Inconclusive (mk_stats (lvl - 1)));
        0
    | None when cancelled () ->
        (* killed mid-level: the partial level is discarded; the
           checkpoint (if any) holds the last completed boundary, so a
           resumed run repeats exactly this level *)
        result := Some (Interrupted (mk_stats (lvl - 1)));
        0
    | None ->
        deduped_total := !deduped_total + !level_deduped;
        let survivors =
          match sys.dedup with
          | Equal -> List.rev !candidates
          | Subsume ->
              List.filter
                (fun (idx, _) ->
                  if kept_subsumes idx then begin
                    incr subsumed_total;
                    false
                  end
                  else begin
                    kept_insert idx;
                    true
                  end)
                (List.stable_sort
                   (fun (a, _) (b, _) ->
                     compare (Arena.card arena a) (Arena.card arena b))
                   (List.rev !candidates))
        in
        let width = List.length survivors in
        (match frontier_log with
        | Some f ->
            f ~level:lvl
              (List.map (fun (idx, _) -> Arena.to_state arena idx) survivors)
        | None -> ());
        sizes := width :: !sizes;
        frontier := survivors;
        incr level;
        width
  in
  Span.run ~sink ~name:"search" @@ fun search_sp ->
  let outcome =
    if State.is_sorted sys.initial then
      Sorted { depth = 0; moves = []; stats = mk_stats 0 }
    else begin
      while !result = None && !level <= max_depth && !frontier <> [] do
        let lvl = !level in
        let before = totals () in
        (* nested under the "search" span: the event path is
           "search/level" *)
        Span.run ~sink ~name:"level" @@ fun sp ->
        let surviving = step lvl in
        (* per-level deltas: summing these fields over all level events
           reproduces the run's final stats exactly *)
        Span.add sp "level" (Sink.Int lvl);
        List.iter2
          (fun k (a, b) -> Span.add sp k (Sink.Int (b - a)))
          total_names
          (List.combine before (totals ()));
        Span.add sp "frontier" (Sink.Int surviving);
        if !result = None then begin
          (match on_level with
          | Some f -> f ~level:lvl ~frontier:surviving (mk_stats lvl)
          | None -> ());
          (* level boundary: cut a snapshot, flush on the cadence *)
          boundary_len := Arena.length arena;
          if ckpt_path <> None then begin
            let payload = snapshot_payload () in
            pending := Some payload;
            if Clock.wall () -. !last_write >= ckpt_interval then
              flush_payload payload
          end;
          (* simulated mid-run kill: fires after the boundary flush so
             every incarnation makes progress (exactly one level) *)
          if Fault.fire "kill-level" then interrupted := true;
          if cancelled () then result := Some (Interrupted (mk_stats lvl))
        end
      done;
      (* a final flush covers boundaries the cadence skipped, so an
         interrupted run never loses more than the in-flight level; the
         in-flight level's commits are dropped first so the lazily built
         snapshot matches the boundary it was cut at *)
      (match (!result, !pending) with
      | Some (Interrupted _), Some payload ->
          Arena.truncate arena !boundary_len;
          flush_payload payload
      | _ -> ());
      Arena.record_metrics arena;
      match !result with
      | Some r -> r
      | None ->
          (* loop left because level > max_depth or the frontier
             emptied: every reachable state was explored with its
             maximal remaining budget, so no prefix of <= max_depth
             moves sorts *)
          Unsorted (mk_stats (!level - 1))
    end
  in
  let s, verdict =
    match outcome with
    | Sorted { stats; _ } -> (stats, "sorted")
    | Unsorted stats -> (stats, "unsorted")
    | Inconclusive stats -> (stats, "inconclusive")
    | Interrupted stats -> (stats, "interrupted")
  in
  let totals = [ s.nodes; s.pruned; s.deduped; s.subsumed; s.redundant ] in
  List.iter2 Metrics.add
    [ c_nodes; c_pruned; c_deduped; c_subsumed; c_redundant; c_levels ]
    (totals @ [ s.completed_levels ]);
  Span.add search_sp "outcome" (Sink.Str verdict);
  List.iter2
    (fun k v -> Span.add search_sp k (Sink.Int v))
    (total_names @ [ "peak_frontier"; "completed_levels" ])
    (totals @ [ s.peak_frontier; s.completed_levels ]);
  outcome

(* --- sorting-network instantiation --- *)

type layer = Layers.layer

let network_system ?(restrict = true) ~n () =
  if n < 2 || n > 10 then
    invalid_arg "Driver.network_system: n must be in [2, 10]";
  let all = Layers.all ~n in
  let first = [ Layers.first ~n ] in
  let second = if restrict then Layers.second ~n else all in
  let moves_at ~level =
    if level = 1 then first else if level = 2 then second else all
  in
  (* Analysis hook (restricted mode, levels >= 3 only): a layer
     containing a comparator [(i, j)] that never fires on the state's
     reachable set — no reachable mask has bit [i] set and bit [j]
     clear ({!Reach.unordered_pairs} over {!State.iter_masks}) —
     reaches exactly the state of that layer minus the comparator.
     [Layers.all] contains every nonempty matching, so from level 3 on
     the smaller layer is itself an available move (or, when it
     empties, the child equals the parent, which the equality dedup
     already represents); skipping the larger layer therefore loses no
     depth-optimal witness. Level 2 serves only symmetry
     representatives, where the sub-layer may be absent, and level 1
     is fixed — the hook stays off there. The reference system keeps
     the hook off entirely: it is the exhaustive baseline the pruned
     search is validated against. *)
  let redundant_of ~level st =
    if not restrict || level <= 2 then fun _ -> false
    else begin
      let tbl =
        lazy (Reach.unordered_pairs ~n ~iter:(fun f -> State.iter_masks f st))
      in
      fun layer ->
        List.exists
          (fun (i, j) -> not (Reach.pair_unordered (Lazy.force tbl) ~n i j))
          layer
    end
  in
  { n;
    tag = (if restrict then "layers" else "layers-reference");
    initial = State.initial ~n;
    moves_at;
    stage = Arena.comparators;
    prune = no_prune;
    redundant_of;
    dedup = (if restrict then Subsume else Equal) }

let optimal_depth ?budget ?sink ?on_level ?frontier_log ?cancel ?checkpoint
    ?resume ?restrict ?max_depth ~n () =
  let max_depth = match max_depth with Some d -> d | None -> n in
  run ?budget ?sink ?on_level ?frontier_log ?cancel ?checkpoint ?resume
    ~max_depth
    (network_system ?restrict ~n ())

let witness_network ~n layers =
  Network.of_gate_levels ~wires:n (List.map Layers.gates layers)

let verify_witness ~n layers =
  Bitslice.is_sorting_network (Cache.compile (witness_network ~n layers))
