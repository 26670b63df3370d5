type value = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

type event = {
  ts : float;
  ev : string;
  name : string;
  fields : (string * value) list;
}

type t =
  | Null
  | Ndjson of { oc : out_channel; m : Mutex.t }
  | Memory of { events : event list ref; m : Mutex.t }
  | Tee of t * t

let null = Null
let ndjson oc = Ndjson { oc; m = Mutex.create () }

let memory () =
  let events = ref [] and m = Mutex.create () in
  let read () =
    Mutex.lock m;
    let l = List.rev !events in
    Mutex.unlock m;
    l
  in
  (Memory { events; m }, read)

let tee a b =
  match (a, b) with Null, s | s, Null -> s | a, b -> Tee (a, b)

let enabled = function Null -> false | Ndjson _ | Memory _ | Tee _ -> true

let to_json e =
  Json.to_string
    (Obj
       (("ts", Float e.ts) :: ("ev", Str e.ev) :: ("name", Str e.name)
       :: e.fields))

let rec deliver t e =
  match t with
  | Null -> ()
  | Ndjson { oc; m } ->
      Mutex.lock m;
      output_string oc (to_json e);
      output_char oc '\n';
      flush oc;
      Mutex.unlock m
  | Memory { events; m } ->
      Mutex.lock m;
      events := e :: !events;
      Mutex.unlock m
  | Tee (a, b) ->
      deliver a e;
      deliver b e

let emit t ~ev ~name fields =
  match t with
  | Null -> ()
  | t -> deliver t { ts = Clock.wall (); ev; name; fields }
