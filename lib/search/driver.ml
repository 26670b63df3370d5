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

(* --- the per-entry step --- *)

type 'm expansion = {
  found : 'm list option;
  children : (State.t * 'm list) list;
  pruned : int;
  redundant : int;
  live : int;
}

(* Expand committed row [pidx], reached by the reversed prefix [pre],
   by every move the redundancy hook keeps, in move order. [charge
   live] is asked before any move is applied; [false] (the budget
   tripped) abandons the entry with [None], its redundancy tally
   unreported. Each child that is neither sorted nor pruned is handed
   to [emit m] while it sits in the staging row. A sorted child ends
   the entry: later moves are never applied. *)
let expand_row sys arena ~level ~max_depth ~moves ~charge ~emit (pidx, pre) =
  let is_red =
    if sys.redundant_of == no_redundant then fun _ -> false
    else sys.redundant_of ~level (Arena.to_state arena pidx)
  in
  let redundant = ref 0 in
  let live =
    List.filter
      (fun m ->
        if is_red m then begin
          incr redundant;
          false
        end
        else true)
      moves
  in
  let nlive = List.length live in
  if not (charge nlive) then None
  else begin
    let remaining = max_depth - level in
    let pruned = ref 0 in
    let rec go = function
      | [] -> None
      | m :: rest ->
          Arena.stage_child arena ~parent:pidx (sys.stage m);
          if Arena.staged_is_sorted arena then Some (m :: pre)
          else begin
            (* children of the last level are only tested for
               sortedness: nothing would expand them *)
            if remaining > 0 then
              if
                sys.prune != no_prune
                && sys.prune ~level ~remaining (Arena.staged_state arena)
              then incr pruned
              else emit m;
            go rest
          end
    in
    let found = go live in
    Some
      { found; children = []; pruned = !pruned; redundant = !redundant; live = nlive }
  end

let commit_state arena st =
  Arena.stage_state arena st;
  match Arena.commit arena ~level:0 with `Fresh i | `Dup i -> i

let expand_entries sys ~max_depth ~level entries =
  let arena = Arena.create ~with_sigs:false ~n:sys.n () in
  let moves = sys.moves_at ~level in
  let rec go acc = function
    | [] -> List.rev acc
    | (st, pre) :: rest -> (
        let children = ref [] in
        let emit m = children := (Arena.staged_state arena, m :: pre) :: !children in
        match
          expand_row sys arena ~level ~max_depth ~moves
            ~charge:(fun _ -> true)
            ~emit (commit_state arena st, pre)
        with
        | None -> assert false (* charge never refuses *)
        | Some x ->
            let x = { x with children = List.rev !children } in
            if Option.is_none x.found then go (x :: acc) rest
            else List.rev (x :: acc))
  in
  go [] entries

(* --- checkpoint / resume --- *)

(* -2: the snapshot gained [s_redundant] (the analysis-hook skip
   counter); older snapshots deserialize into a different record
   layout, so the kind is bumped and they are rejected as a whole —
   rerunning is always sound, resuming into a wrong layout never is. *)
let checkpoint_kind = "snlb-search-driver-2"

(* Everything run needs to continue from a level boundary exactly as
   if it had never stopped: the frontier (with the move prefixes that
   produced it), the cross-level equality and subsumption memories,
   every counter, and the wall/CPU time already spent (so budgets and
   reported stats cover the whole logical run, not just the last
   incarnation). *)
type 'm snapshot = {
  s_level : int;  (* next level to expand (1-based) *)
  s_frontier : (State.t * 'm list) list;
  s_seen : (int array, unit) Hashtbl.t;
  s_kept : (State.t * Subsume.fingerprint) list;
  s_nodes : int;
  s_pruned : int;
  s_deduped : int;
  s_subsumed : int;
  s_redundant : int;
  s_sizes : int list;  (* reversed frontier_sizes, as kept by the loop *)
  s_elapsed : float;
  s_elapsed_cpu : float;
}

type resume_state = {
  rs_tag : string;
  rs_n : int;
  rs_max_depth : int;
  rs_dedup : string;
  rs_level : int;
  rs_payload : string;
}

let dedup_name = function Equal -> "equal" | Subsume -> "subsume"

let meta_int meta key =
  match List.assoc_opt key meta with
  | None -> Error (Printf.sprintf "missing meta key %S" key)
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "meta key %S is not an integer (%S)" key v))

let resume ~path =
  match Checkpoint.load ~path with
  | Error _ as e -> e
  | Ok (ck, source) -> (
      (match source with
      | `Primary -> ()
      | `Backup reason ->
          Printf.eprintf
            "snlb: falling back to checkpoint backup %s (%s)\n%!"
            (Atomic_file.backup_path path) reason);
      if ck.Checkpoint.kind <> checkpoint_kind then
        Error
          (Printf.sprintf "checkpoint %s holds a %S snapshot, not a search"
             path ck.Checkpoint.kind)
      else
        let meta = ck.Checkpoint.meta in
        let ( let* ) = Result.bind in
        let* n = meta_int meta "n" in
        let* max_depth = meta_int meta "max_depth" in
        let* level = meta_int meta "level" in
        let* tag =
          match List.assoc_opt "tag" meta with
          | Some t -> Ok t
          | None -> Error "missing meta key \"tag\""
        in
        let* dedup =
          match List.assoc_opt "dedup" meta with
          | Some d -> Ok d
          | None -> Error "missing meta key \"dedup\""
        in
        Ok
          { rs_tag = tag;
            rs_n = n;
            rs_max_depth = max_depth;
            rs_dedup = dedup;
            rs_level = level;
            rs_payload = ck.Checkpoint.payload })

let describe rs =
  Printf.sprintf "%s search, n=%d, max_depth=%d, next level %d" rs.rs_tag
    rs.rs_n rs.rs_max_depth rs.rs_level

(* The snapshot is only trusted when every compatibility key matches
   the run it is resumed into: the completed levels of a different
   max_depth were explored under a different prune budget, a different
   dedup mode keeps a different frontier, and a different move tag is
   a different search entirely. On mismatch the run degrades to a
   fresh start with a warning — resuming must never be less safe than
   rerunning. *)
let validate_resume ~max_depth sys rs =
  if rs.rs_tag <> sys.tag then
    Error (Printf.sprintf "move tag %S does not match this search (%S)" rs.rs_tag sys.tag)
  else if rs.rs_n <> sys.n then
    Error (Printf.sprintf "checkpoint is for n=%d, this search is n=%d" rs.rs_n sys.n)
  else if rs.rs_max_depth <> max_depth then
    Error
      (Printf.sprintf "checkpoint max_depth=%d, this search max_depth=%d"
         rs.rs_max_depth max_depth)
  else if rs.rs_dedup <> dedup_name sys.dedup then
    Error
      (Printf.sprintf "checkpoint dedup=%s, this search dedup=%s" rs.rs_dedup
         (dedup_name sys.dedup))
  else Ok ()

let run ?domains:_ ?engine:_ ?(budget = default_budget) ?(sink = Sink.null)
    ?on_level ?frontier_log ?cancel ?checkpoint ?resume:resume_from ?expand
    ~max_depth sys =
  if max_depth < 0 then invalid_arg "Driver.run: max_depth must be >= 0";
  (* a validated snapshot, or None for a fresh start *)
  let snap : 'm snapshot option =
    match resume_from with
    | None -> None
    | Some rs -> (
        match validate_resume ~max_depth sys rs with
        | Ok () ->
            Metrics.incr c_resumes;
            Some (Marshal.from_string rs.rs_payload 0 : 'm snapshot)
        | Error why ->
            Printf.eprintf
              "snlb: ignoring incompatible checkpoint (%s); starting fresh\n%!"
              why;
            None)
  in
  let from_snap f default = match snap with Some s -> f s | None -> default in
  let w0 = Clock.wall () -. from_snap (fun s -> s.s_elapsed) 0. in
  let cpu0 = Clock.cpu () -. from_snap (fun s -> s.s_elapsed_cpu) 0. in
  let nodes = ref (from_snap (fun s -> s.s_nodes) 0) in
  let pruned_total = ref (from_snap (fun s -> s.s_pruned) 0) in
  let deduped_total = ref (from_snap (fun s -> s.s_deduped) 0) in
  let subsumed_total = ref (from_snap (fun s -> s.s_subsumed) 0) in
  let redundant_total = ref (from_snap (fun s -> s.s_redundant) 0) in
  let sizes = ref (from_snap (fun s -> s.s_sizes) []) in
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
                [ ("tag", sys.tag);
                  ("n", string_of_int sys.n);
                  ("max_depth", string_of_int max_depth);
                  ("dedup", dedup_name sys.dedup);
                  ("level", string_of_int boundary_level) ];
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
  (* The store: every state the search has seen is a row of one
     {!Arena} (flat int64 rows + open addressing, no boxed keys), and
     the subsumption representatives are arena indices kept sorted by
     ascending cardinality: a rep can only subsume candidates of >= its
     card (subsumption maps the reachable set injectively), so the scan
     for a candidate cuts off at the first larger card. *)
  let arena = Arena.create ~with_sigs:(sys.dedup = Subsume) ~n:sys.n () in
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
  (* the frontier: arena indices with their reversed move prefixes *)
  let frontier = ref [] in
  (match snap with
  | None -> frontier := [ (commit_state arena sys.initial, []) ]
  | Some s ->
      (* rehydrate the snapshot: every seen state becomes a committed
         row, then kept and frontier resolve to their indices by dedup *)
      Hashtbl.iter
        (fun key () -> ignore (commit_state arena (State.of_key ~n:sys.n key)))
        s.s_seen;
      List.iter
        (fun (st, _fp) -> kept_insert (commit_state arena st))
        (List.rev s.s_kept);
      frontier := List.map (fun (st, pre) -> (commit_state arena st, pre)) s.s_frontier);
  let result = ref None in
  let level = ref (from_snap (fun s -> s.s_level) 1) in
  (* last completed boundary's row count: an interrupted level's
     commits are truncated back to it before the final flush *)
  let boundary_len = ref (Arena.length arena) in
  (* Capture the boundary NOW but serialize lazily, at flush time: the
     scalars are pinned eagerly, the structures (arena rows, kept,
     frontier) only change at the next boundary — which installs a
     fresh thunk first. Skipped boundaries therefore cost a closure,
     not a Marshal of the whole search state. The payload keeps the
     boxed [State.t] layout of [checkpoint_kind]. *)
  let snapshot_payload () =
    let s_level = !level
    and s_nodes = !nodes
    and s_pruned = !pruned_total
    and s_deduped = !deduped_total
    and s_subsumed = !subsumed_total
    and s_redundant = !redundant_total
    and s_sizes = !sizes
    and s_elapsed = Clock.wall () -. w0
    and s_elapsed_cpu = Clock.cpu () -. cpu0 in
    fun () ->
      let seen = Hashtbl.create (2 * Arena.length arena) in
      for idx = 0 to Arena.length arena - 1 do
        Hashtbl.replace seen (State.key (Arena.to_state arena idx)) ()
      done;
      let s_kept =
        List.init !kept_len (fun k ->
            let st = Arena.to_state arena (!kept_idx).(k) in
            (st, Subsume.fingerprint st))
      in
      let s_frontier =
        List.map (fun (idx, pre) -> (Arena.to_state arena idx, pre)) !frontier
      in
      ( Marshal.to_string
          { s_level;
            s_frontier;
            s_seen = seen;
            s_kept;
            s_nodes;
            s_pruned;
            s_deduped;
            s_subsumed;
            s_redundant;
            s_sizes;
            s_elapsed;
            s_elapsed_cpu }
          [],
        s_level )
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
    let candidates = ref [] in
    (* equality-dup hits are folded in only when the level completes *)
    let level_deduped = ref 0 in
    let commit pre =
      match Arena.commit arena ~level:lvl with
      | `Fresh idx -> candidates := (idx, pre) :: !candidates
      | `Dup _ -> incr level_deduped
    in
    let found = ref None in
    let account x =
      redundant_total := !redundant_total + x.redundant;
      pruned_total := !pruned_total + x.pruned;
      match x.found with
      | Some rev_moves ->
          found := Some rev_moves;
          raise Exit
      | None ->
          List.iter
            (fun (st, pre) ->
              Arena.stage_state arena st;
              commit pre)
            x.children
    in
    (try
       match expand with
       | None ->
           let moves = sys.moves_at ~level:lvl in
           List.iter
             (fun ((_, pre) as entry) ->
               if cancelled () then raise Exit;
               match
                 expand_row sys arena ~level:lvl ~max_depth ~moves ~charge
                   ~emit:(fun m -> commit (m :: pre))
                   entry
               with
               | None -> raise Exit
               | Some x -> account x)
             !frontier
       | Some f ->
           (* expanded elsewhere; replayed here in global entry order *)
           List.iter
             (fun x ->
               if cancelled () || not (charge x.live) then raise Exit;
               account x)
             (f ~level:lvl
                (List.map
                   (fun (idx, pre) -> (Arena.to_state arena idx, pre))
                   !frontier))
     with Exit -> ());
    match !found with
    | Some rev_moves ->
        result :=
          Some
            (Sorted
               { depth = lvl; moves = List.rev rev_moves; stats = mk_stats (lvl - 1) });
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
        let nodes0 = !nodes
        and pruned0 = !pruned_total
        and deduped0 = !deduped_total
        and subsumed0 = !subsumed_total
        and redundant0 = !redundant_total in
        (* nested under the "search" span: the event path is
           "search/level" *)
        Span.run ~sink ~name:"level" @@ fun sp ->
        let surviving = step lvl in
        (* per-level deltas: summing these fields over all level events
           reproduces the run's final stats exactly *)
        Span.add sp "level" (Sink.Int lvl);
        Span.add sp "nodes" (Sink.Int (!nodes - nodes0));
        Span.add sp "pruned" (Sink.Int (!pruned_total - pruned0));
        Span.add sp "deduped" (Sink.Int (!deduped_total - deduped0));
        Span.add sp "subsumed" (Sink.Int (!subsumed_total - subsumed0));
        Span.add sp "redundant" (Sink.Int (!redundant_total - redundant0));
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
  Metrics.add c_nodes s.nodes;
  Metrics.add c_pruned s.pruned;
  Metrics.add c_deduped s.deduped;
  Metrics.add c_subsumed s.subsumed;
  Metrics.add c_redundant s.redundant;
  Metrics.add c_levels s.completed_levels;
  Span.add search_sp "outcome" (Sink.Str verdict);
  Span.add search_sp "nodes" (Sink.Int s.nodes);
  Span.add search_sp "pruned" (Sink.Int s.pruned);
  Span.add search_sp "deduped" (Sink.Int s.deduped);
  Span.add search_sp "subsumed" (Sink.Int s.subsumed);
  Span.add search_sp "redundant" (Sink.Int s.redundant);
  Span.add search_sp "peak_frontier" (Sink.Int s.peak_frontier);
  Span.add search_sp "completed_levels" (Sink.Int s.completed_levels);
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

let optimal_depth ?domains:_ ?engine:_ ?budget ?sink ?on_level ?frontier_log
    ?cancel ?checkpoint ?resume ?restrict ?max_depth ~n () =
  let max_depth = match max_depth with Some d -> d | None -> n in
  run ?budget ?sink ?on_level ?frontier_log ?cancel ?checkpoint ?resume
    ~max_depth
    (network_system ?restrict ~n ())

let witness_network ~n layers =
  Network.of_gate_levels ~wires:n (List.map Layers.gates layers)

let verify_witness ~n layers =
  Bitslice.is_sorting_network (Cache.compile (witness_network ~n layers))
