let default_cap = 8
let clamp_max = 64
let clamp_domains v = min clamp_max (max 1 v)

let recommended_domains () =
  let default () =
    let cores = Domain.recommended_domain_count () in
    min default_cap (max 1 (cores - 1))
  in
  match Sys.getenv_opt "SNLB_DOMAINS" with
  | None -> default ()
  | Some s -> (
      (* an empty / all-whitespace value means "unset", silently *)
      match String.trim s with
      | "" -> default ()
      | t -> (
          match int_of_string_opt t with
          | Some v when v >= 1 && v <= 64 -> v
          | Some v ->
              let c = clamp_domains v in
              Printf.eprintf
                "snlb: SNLB_DOMAINS=%d out of range [1, 64]; clamping to %d\n%!"
                v c;
              c
          | None ->
              let d = default () in
              Printf.eprintf
                "snlb: SNLB_DOMAINS=%S is not an integer; using default %d\n%!"
                s d;
              d))

let map_ranges ~domains ~lo ~hi f =
  if lo > hi then invalid_arg "Par.map_ranges: lo > hi";
  if domains < 1 then invalid_arg "Par.map_ranges: domains < 1";
  let total = hi - lo in
  let chunks = max 1 (min domains total) in
  if chunks = 1 || total = 0 then [ f ~lo ~hi ]
  else begin
    let bounds =
      List.init chunks (fun i ->
          let a = lo + (total * i / chunks) in
          let b = lo + (total * (i + 1) / chunks) in
          (a, b))
    in
    match bounds with
    | [] -> assert false
    | (a0, b0) :: rest ->
        (* Every spawned chunk is wrapped so Domain.join never raises;
           the calling-domain chunk runs under Fun.protect whose finally
           joins every handle. A raise anywhere — including in the first
           chunk, the SIGINT [Cancel] drain path — therefore never leaks
           a running domain or skips a join. The first failing chunk in
           range order is re-raised with its backtrace once all chunks
           have been joined. *)
        let wrap g =
          match g () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        let handles =
          List.map
            (fun (a, b) -> Domain.spawn (fun () -> wrap (fun () -> f ~lo:a ~hi:b)))
            rest
        in
        let joined = ref [] in
        let first =
          Fun.protect
            ~finally:(fun () -> joined := List.map Domain.join handles)
            (fun () -> wrap (fun () -> f ~lo:a0 ~hi:b0))
        in
        List.map
          (function
            | Ok v -> v
            | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
          (first :: !joined)
  end

let map_list ?(min_per_domain = 1) ~domains f xs =
  if domains < 1 then invalid_arg "Par.map_list: domains < 1";
  if min_per_domain < 1 then invalid_arg "Par.map_list: min_per_domain < 1";
  let arr = Array.of_list xs in
  let n = Array.length arr in
  (* Work-size threshold: spawning a domain costs orders of magnitude
     more than mapping one small element, so a list that cannot feed
     every domain at least [min_per_domain] elements shrinks its
     fan-out — down to fully sequential — instead of paying spawn and
     GC-synchronisation overhead that dwarfs the work (the domains=2
     10x regression on small search frontiers). *)
  let domains = min domains (n / min_per_domain) in
  if domains <= 1 || n <= 1 then List.map f xs
  else begin
    let out = Array.make n None in
    let results =
      map_ranges ~domains ~lo:0 ~hi:n (fun ~lo ~hi ->
          List.init (hi - lo) (fun i -> (lo + i, f arr.(lo + i))))
    in
    List.iter (List.iter (fun (i, y) -> out.(i) <- Some y)) results;
    Array.to_list (Array.map Option.get out)
  end
