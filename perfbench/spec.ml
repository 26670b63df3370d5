(* The benchmark's contract: the workload names and the metric names
   with their units, read from BENCHMARK.json at the repository root.
   The harness keeps no copy of the list; it checks what a run
   measured against the file and refuses a metric the file does not
   name. *)

type metric = { name : string; unit : string }

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all is_name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
             true
         | _ -> false)
       s

let ( let* ) = Result.bind

let all_ok f l =
  List.fold_left (fun acc x -> let* () = acc in f x) (Ok ()) l

(* The [name] (and, for metrics, [unit]) of every entry of list [key]. *)
let entries key json =
  match Option.bind (Json.member key json) Json.to_list with
  | None -> Error (Printf.sprintf "BENCHMARK.json: %S is not a list" key)
  | Some items ->
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          let str k = Option.bind (Json.member k item) Json.to_str in
          match str "name" with
          | None -> Error (Printf.sprintf "BENCHMARK.json: %S entry without a name" key)
          | Some name -> Ok ((name, str "unit") :: acc))
        items (Ok [])

let metrics key json =
  let* l = entries key json in
  List.fold_right
    (fun (name, unit) acc ->
      let* acc = acc in
      match unit with
      | Some unit when valid_unit unit -> Ok ({ name; unit } :: acc)
      | Some unit -> Error (Printf.sprintf "BENCHMARK.json: malformed unit %S of %s" unit name)
      | None -> Error (Printf.sprintf "BENCHMARK.json: metric %s has no unit" name))
    l (Ok [])

let of_string text =
  let* json = Result.map_error (fun e -> "BENCHMARK.json: " ^ e) (Json.of_string text) in
  let* workloads = entries "workloads" json in
  let workloads = List.map fst workloads in
  let* end_to_end = metrics "end_to_end" json in
  let* per_layer = metrics "per_layer" json in
  let names = workloads @ List.map (fun m -> m.name) (end_to_end @ per_layer) in
  let* () =
    all_ok
      (fun s ->
        if valid_name s then Ok () else Error (Printf.sprintf "BENCHMARK.json: malformed name %S" s))
      names
  in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  match dup (List.sort compare names) with
  | Some d -> Error (Printf.sprintf "BENCHMARK.json: name %S is used twice" d)
  | None -> Ok { workloads; end_to_end; per_layer }

(* BENCHMARK.json in the current directory, the root of a checkout. *)
let load () =
  match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
  | text -> of_string text
  | exception Sys_error _ -> Error "BENCHMARK.json not found in the current directory"

(* The value of every metric in [listed], in the file's order, from
   the [measured] (name, value) pairs. A measured name the file does
   not list is an error; so is a listed name that was not measured,
   unless [absent] gives it a value (a layer the workload does not
   use). *)
let select ~what ?absent listed measured =
  let* () =
    all_ok
      (fun (name, _) ->
        if List.exists (fun m -> m.name = name) listed then Ok ()
        else Error (Printf.sprintf "%s metric %s is measured but BENCHMARK.json does not list it" what name))
      measured
  in
  List.fold_right
    (fun m acc ->
      let* acc = acc in
      match (List.assoc_opt m.name measured, absent) with
      | Some v, _ | None, Some v -> Ok ((m, v) :: acc)
      | None, None ->
          Error (Printf.sprintf "%s metric %s is listed in BENCHMARK.json but not measured" what m.name))
    listed (Ok [])
