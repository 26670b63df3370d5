(* Open-loop load generation over pipelined connections.

   Requests go out on a seeded schedule whether or not earlier ones
   have been answered, as independent users would send them. Each
   request's latency runs from when it was due, not from when the
   generator got round to sending it, so a stall in the generator or
   the server is charged to every request it delays; how late the
   generator itself ran is reported separately. *)

(* Poisson arrivals at [rate] per second over [duration] seconds:
   offsets from the start, ascending. *)
let arrivals ~rng ~rate ~duration =
  let rec go t acc =
    let gap = -.Float.log (1. -. Random.State.float rng 1.) /. rate in
    let t = t +. gap in
    if t >= duration then List.rev acc else go t (t :: acc)
  in
  go 0. []

(* Milliseconds from the due time to the response: the open-loop
   latency. *)
let latency_ms ~due ~recv = (recv -. due) *. 1000.

(* Milliseconds the generator sent after the due time (never
   negative: sending early is not possible on a schedule). *)
let late_ms ~due ~sent = Float.max 0. ((sent -. due) *. 1000.)

type lateness = { late_p50_ms : float; late_tail_ms : float; late_max_ms : float; late_over_1ms : int }

let account_lateness pairs =
  let ls = List.map (fun (due, sent) -> late_ms ~due ~sent) pairs in
  match ls with
  | [] -> { late_p50_ms = 0.; late_tail_ms = 0.; late_max_ms = 0.; late_over_1ms = 0 }
  | _ ->
      let s = Stats.summarize ls in
      { late_p50_ms = s.Stats.p50;
        late_tail_ms = Stats.tail_or_median s;
        late_max_ms = List.fold_left Float.max 0. ls;
        late_over_1ms = List.length (List.filter (fun l -> l > 1.) ls);
      }

(* --- incremental frame decoding (the [Frame] wire format) --- *)

(* Complete [<len>\n<payload>\n] frames at the front of [buf], which
   keeps any incomplete tail. *)
let take_frames buf =
  let s = Buffer.contents buf in
  let n = String.length s in
  let rec go pos acc =
    match String.index_from_opt s pos '\n' with
    | None -> (pos, List.rev acc)
    | Some nl -> (
        match int_of_string_opt (String.sub s pos (nl - pos)) with
        | None -> failwith "Loadgen.take_frames: malformed length header"
        | Some len ->
            let stop = nl + 1 + len in
            if stop + 1 > n then (pos, List.rev acc)
            else if s.[stop] <> '\n' then
              failwith "Loadgen.take_frames: missing frame terminator"
            else go (stop + 1) (String.sub s (nl + 1) len :: acc))
  in
  let consumed, frames = go 0 [] in
  Buffer.clear buf;
  Buffer.add_string buf (String.sub s consumed (n - consumed));
  frames

type request = { due : float; conn : int; payload : string }
(* [due] is an absolute time ([Unix.gettimeofday] scale). *)

type outcome = {
  queued : float array;  (* when the generator got to the request *)
  sent : float array;  (* when its last byte reached the socket *)
  recv : float array;  (* [nan] when no response arrived *)
  response : string array;
}

let frame payload = Printf.sprintf "%d\n%s\n" (String.length payload) payload

(* Send [reqs] (ascending [due]) over [fds], request [i] on
   [fds.(reqs.(i).conn)], and collect responses until all are in or
   [give_up] (absolute time) passes. Responses on one connection come
   back in request order. Sockets are non-blocking and writes wait for
   writability, so a server that stops reading cannot stall the
   reads. *)
let run ~fds ~give_up (reqs : request array) =
  let n = Array.length reqs in
  let queued = Array.make n nan and sent = Array.make n nan in
  let recv = Array.make n nan and response = Array.make n "" in
  let nconn = Array.length fds in
  Array.iter Unix.set_nonblock fds;
  let pending = Array.init nconn (fun _ -> Queue.create ()) in
  let inbuf = Array.init nconn (fun _ -> Buffer.create 4096) in
  (* per connection: (request, frame, bytes written) not yet fully sent *)
  let outq = Array.init nconn (fun _ -> Queue.create ()) in
  let chunk = Bytes.create 65536 in
  let next = ref 0 and answered = ref 0 in
  let conn_of fd =
    let rec find i = if fds.(i) == fd then i else find (i + 1) in
    find 0
  in
  let flush c =
    let rec go () =
      match Queue.peek_opt outq.(c) with
      | None -> ()
      | Some (i, f, off) -> (
          let len = String.length f - !off in
          match Unix.write_substring fds.(c) f !off len with
          | w when w = len ->
              ignore (Queue.pop outq.(c));
              sent.(i) <- Unix.gettimeofday ();
              Queue.push i pending.(c);
              go ()
          | w -> off := !off + w
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
    in
    go ()
  in
  while !answered < n && Unix.gettimeofday () < give_up do
    let t = Unix.gettimeofday () in
    while !next < n && reqs.(!next).due <= t do
      let r = reqs.(!next) in
      queued.(!next) <- t;
      Queue.push (!next, frame r.payload, ref 0) outq.(r.conn);
      incr next
    done;
    Array.iteri (fun c _ -> flush c) fds;
    let wait =
      if !next < n then Float.max 0. (reqs.(!next).due -. Unix.gettimeofday ())
      else Float.max 0. (Float.min 0.05 (give_up -. Unix.gettimeofday ()))
    in
    let writers = List.filter (fun fd -> not (Queue.is_empty outq.(conn_of fd))) (Array.to_list fds) in
    let readable, writable, _ =
      try Unix.select (Array.to_list fds) writers [] wait
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter (fun fd -> flush (conn_of fd)) writable;
    let t_in = Unix.gettimeofday () in
    List.iter
      (fun fd ->
        let c = conn_of fd in
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | 0 -> failwith "Loadgen.run: the server closed a connection"
        | got ->
            Buffer.add_subbytes inbuf.(c) chunk 0 got;
            List.iter
              (fun payload ->
                match Queue.take_opt pending.(c) with
                | None -> failwith "Loadgen.run: response without a request"
                | Some i ->
                    recv.(i) <- t_in;
                    response.(i) <- payload;
                    incr answered)
              (take_frames inbuf.(c)))
      readable
  done;
  Array.iter Unix.clear_nonblock fds;
  { queued; sent; recv; response }
