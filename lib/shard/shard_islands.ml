type t = {
  found : (int * int) option;
  best : Genome.t;
  best_fitness : int;
  best_size : int;
  generations : int;
  epochs_run : int;
  populations : Genome.t array array;
  interrupted : bool;
}

let kind = "snlb-shard-islands"

let c_epochs = Metrics.counter "shard.islands.epochs"
let c_migrations = Metrics.counter "shard.islands.migrations"

(* Island seeds must be deterministic and distinct; island 0 keeps the
   base seed so [islands = 1] reproduces the single-process run. *)
let island_seed base i = base + (i * 1_000_003)

(* The population travels in the canonical text format (the same bytes
   a checkpoint or migration carries), genomes as their stable
   serialization. *)
type epoch_result = {
  r_population : string;
  r_found_at : int option;
  r_best_fitness : int;
  r_best_size : int;
  r_best : string;
  r_generations : int;
}

(* A result crosses the process boundary as one JSON object. *)
let result_to_string r =
  Json.to_string
    (Json.Obj
       [ ("population", Json.Str r.r_population);
         ("found_at",
           match r.r_found_at with Some g -> Json.Int g | None -> Json.Null);
         ("best_fitness", Json.Int r.r_best_fitness);
         ("best_size", Json.Int r.r_best_size);
         ("best", Json.Str r.r_best);
         ("generations", Json.Int r.r_generations) ])

let result_of_string s =
  let ( let* ) = Result.bind in
  let* j = Json.of_string s in
  let field k f =
    Option.to_result ~none:("missing or ill-typed " ^ k)
      (Option.bind (Json.member k j) f)
  in
  let* r_population = field "population" Json.to_str in
  let* r_found_at =
    field "found_at" (function
      | Json.Null -> Some None
      | v -> Option.map Option.some (Json.to_int v))
  in
  let* r_best_fitness = field "best_fitness" Json.to_int in
  let* r_best_size = field "best_size" Json.to_int in
  let* r_best = field "best" Json.to_str in
  let* r_generations = field "generations" Json.to_int in
  Ok
    { r_population; r_found_at; r_best_fitness; r_best_size; r_best;
      r_generations }

let segment_result seg =
  {
    r_population = Evolve.population_payload seg.Evolve.seg_population;
    r_found_at = seg.Evolve.seg_found_at;
    r_best_fitness = seg.Evolve.seg_best_fitness;
    r_best_size = seg.Evolve.seg_best_size;
    r_best = Genome.to_string seg.Evolve.seg_best;
    r_generations = seg.Evolve.seg_generations;
  }

let run ?(sink = Sink.null) ?cancel ?config ~mode ~dir ~islands ~epoch
    ~migrants cfg =
  if islands < 1 then invalid_arg "Shard_islands.run: islands < 1";
  if epoch < 1 then invalid_arg "Shard_islands.run: epoch < 1";
  if migrants < 0 || migrants > cfg.Evolve.pop / 2 then
    invalid_arg "Shard_islands.run: migrants must be in [0, pop/2]";
  let island_cfg i = { cfg with Evolve.seed = island_seed cfg.Evolve.seed i } in
  (* validates cfg too (per island, but identically shaped) *)
  let populations =
    Array.init islands (fun i -> Evolve.initial_population (island_cfg i))
  in
  let config =
    { (Option.value config ~default:(Shard.default_config ~dir)) with
      Shard.workers = islands;
      dir }
  in
  let cancelled () =
    match cancel with Some c -> Cancel.cancelled c | None -> false
  in
  let total = cfg.Evolve.gens in
  let best = ref None in
  (* (fitness, size, island, genome); Evolve.better on the first three *)
  let note_best (f, s, i, g) =
    match !best with
    | Some (f0, s0, i0, _) when not (Evolve.better (f, s, i) (f0, s0, i0)) -> ()
    | _ -> best := Some (f, s, i, g)
  in
  let found = ref None in
  let note_found gen i =
    match !found with
    | Some (g0, i0) when (g0, i0) <= (gen, i) -> ()
    | _ -> found := Some (gen, i)
  in
  let error = ref None in
  let interrupted = ref false in
  let start_gen = ref 0 in
  let epochs_run = ref 0 in
  let generations = ref 0 in
  while
    !start_gen < total && !found = None && !error = None && not !interrupted
  do
    if cancelled () then interrupted := true
    else begin
      let gens = min epoch (total - !start_gen) in
      let sg = !start_gen in
      let results =
        match mode with
        | `Inline ->
            Ok
              (List.init islands (fun i ->
                   segment_result
                     (Evolve.run_segment (island_cfg i) ~start_gen:sg ~gens
                        populations.(i))))
        | `Processes -> (
            let units =
              List.init islands (fun i ->
                  ( Printf.sprintf "i%d-e%d" i !epochs_run,
                    Evolve.population_payload populations.(i) ))
            in
            let worker ~id ~payload =
              let i =
                match String.index_opt id '-' with
                | Some dash ->
                    int_of_string (String.sub id 1 (dash - 1))
                | None -> invalid_arg "island unit id"
              in
              let icfg = island_cfg i in
              match Evolve.parse_population icfg payload with
              | Error e -> failwith ("island population payload: " ^ e)
              | Ok pop ->
                  result_to_string
                    (segment_result (Evolve.run_segment icfg ~start_gen:sg ~gens pop))
            in
            match Shard.run ~sink ?cancel config ~kind ~units ~worker with
            | Shard.Completed rs ->
                List.fold_right
                  (fun (_, payload) acc ->
                    match (result_of_string payload, acc) with
                    | Ok r, Ok rs -> Ok (r :: rs)
                    | Error e, _ -> Error ("island result: " ^ e)
                    | _, (Error _ as e) -> e)
                  rs (Ok [])
            | Shard.Quarantined ids ->
                Error
                  (Printf.sprintf
                     "island epoch %d quarantined after %d attempts: %s"
                     !epochs_run config.Shard.max_attempts
                     (String.concat ", " ids))
            | Shard.Cancelled ->
                interrupted := true;
                Error "cancelled")
      in
      match results with
      | Error e -> if not !interrupted then error := Some e
      | Ok rs ->
          let rs = Array.of_list rs in
          Array.iteri
            (fun i r ->
              let icfg = island_cfg i in
              (match Evolve.parse_population icfg r.r_population with
              | Ok pop -> populations.(i) <- pop
              | Error e ->
                  error := Some ("island result population: " ^ e));
              (match Genome.of_string r.r_best with
              | Ok g -> note_best (r.r_best_fitness, r.r_best_size, i, g)
              | Error e -> error := Some ("island result best: " ^ e));
              match r.r_found_at with
              | Some gen -> note_found gen i
              | None -> ())
            rs;
          if !error = None then begin
            Metrics.incr c_epochs;
            incr epochs_run;
            generations :=
              sg
              +
              (match !found with
              | Some (gen, _) -> gen + 1 - sg
              | None -> gens);
            Sink.emit sink ~ev:"shard" ~name:"shard.islands.epoch"
              [
                ("epoch", Sink.Int (!epochs_run - 1));
                ("start_gen", Sink.Int sg);
                ("gens", Sink.Int gens);
                ( "best_fitness",
                  Sink.Int
                    (match !best with Some (f, _, _, _) -> f | None -> 0) );
              ];
            start_gen := sg + gens;
            (* ring migration: island i's elite head seeds island
               i+1's tail; skipped on a find (the run is over) *)
            if !found = None && migrants > 0 && islands > 1 then begin
              let heads =
                Array.map (fun pop -> Array.sub pop 0 migrants) populations
              in
              Array.iteri
                (fun i pop ->
                  let src = heads.((i + islands - 1) mod islands) in
                  let popn = Array.length pop in
                  Array.blit src 0 pop (popn - migrants) migrants;
                  Metrics.add c_migrations migrants)
                populations
            end
          end
    end
  done;
  match !error with
  | Some e -> Error e
  | None ->
      let best_fitness, best_size, _, best =
        match !best with
        | Some b -> b
        | None ->
            (* cancelled before the first barrier *)
            (0, Genome.size populations.(0).(0), 0, populations.(0).(0))
      in
      Ok
        {
          found = !found;
          best;
          best_fitness;
          best_size;
          generations = !generations;
          epochs_run = !epochs_run;
          populations;
          interrupted = !interrupted;
        }
