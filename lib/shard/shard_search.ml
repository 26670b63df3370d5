let kind = "snlb-shard-search"

let c_shard_levels = Metrics.counter "shard.search.levels"

exception Quarantined of string

(* Contiguous, order-preserving slices: the first [len mod k] slices
   get one extra entry. *)
let slice k entries =
  let arr = Array.of_list entries in
  let len = Array.length arr in
  let k = max 1 (min k len) in
  let base = len / k and extra = len mod k in
  List.init k (fun i ->
      let start = (i * base) + min i extra in
      let count = base + if i < extra then 1 else 0 in
      Array.to_list (Array.sub arr start count))

let run ?(sink = Sink.null) ?cancel ?budget ?config ~shards ~dir ~max_depth sys =
  if shards < 1 then invalid_arg "Shard_search.run: shards < 1";
  let config =
    { (Option.value config ~default:(Shard.default_config ~dir)) with
      Shard.workers = shards;
      dir }
  in
  let worker ~id:_ ~payload = Driver.expand_entries sys ~max_depth payload in
  (* one level's frontier, fanned out as slices; the results come back
     in slice order, which is global entry order *)
  let expand ~level ~unit_of rows =
    Metrics.incr c_shard_levels;
    let units =
      List.mapi
        (fun i rows -> (Printf.sprintf "l%d-s%d" level i, unit_of rows))
        (slice shards rows)
    in
    match Shard.run ~sink ?cancel config ~kind ~units ~worker with
    | Shard.Completed results -> List.map snd results
    (* only a tripped [cancel] stops the supervisor, and the driver
       polls the same token, so it reports the level as interrupted *)
    | Shard.Cancelled -> []
    | Shard.Quarantined ids ->
        raise
          (Quarantined
             (Printf.sprintf
                "shard search: level %d slices quarantined after %d attempts: %s"
                level config.Shard.max_attempts (String.concat ", " ids)))
  in
  match Driver.run ~sink ?cancel ?budget ~expand ~max_depth sys with
  | outcome -> Ok outcome
  | exception Quarantined e -> Error e
  | exception Driver.Malformed e -> Error ("shard search: bad result: " ^ e)
