(* One workload run's measurements, and how they are printed: a host
   record, human-readable report lines, then the result as one JSON
   object on the last line. *)

type t = {
  setup : float list;  (* seconds per set-up *)
  op_ms : float;  (* see README.md, "Metrics" *)
  rss_mb : float;
  attempted : int;
  failed : int;
  errors : string list;
  lines : string list;  (* workload-specific report lines *)
  e2e : (string * string * string) list;
      (* workload-specific end-to-end metrics: name, unit, text *)
  layers : (string * float) list;  (* traced runs only *)
}

(* Set-ups per run; [setup_s] is the median of their times. *)
let setup_starts = 21

let metric_json ((m : Spec.metric), v) =
  (m.Spec.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.Spec.unit) ])

let get = function Ok x -> x | Error e -> failwith e

(* The gated end-to-end metrics of an untraced run. *)
let end_to_end r =
  [ ("setup_s", (Stats.summarize r.setup).Stats.p50); ("op_ms", r.op_ms); ("peak_rss_mb", r.rss_mb) ]

let print ~(spec : Spec.t) ~host ~traced r =
  print_endline (Json.to_string (Json.Obj [ ("host", host) ]));
  List.iter print_endline r.lines;
  List.iteri (fun i e -> if i < 5 then Printf.printf "error: %s\n" e) r.errors;
  let setup = Stats.summarize r.setup in
  let metrics =
    if traced then begin
      (* a layer the workload does not use reads 0 *)
      let values = get (Spec.select ~what:"per-layer" ~absent:0. spec.Spec.per_layer r.layers) in
      List.iter
        (fun ((m : Spec.metric), v) ->
          if List.mem_assoc m.Spec.name r.layers then
            Printf.printf "layer %s [%s]: %.6g\n" m.Spec.name m.Spec.unit v)
        values;
      values
    end
    else begin
      List.iter
        (fun (n, u, text) -> Printf.printf "metric %s [%s]: %s\n" n u text)
        ([ ("setup_s", "s", Stats.pp_summary ~unit:"s" setup);
           ( "error_rate",
             "ratio",
             Printf.sprintf "%.6g (%d failed of %d)"
               (float_of_int r.failed /. float_of_int (max 1 r.attempted))
               r.failed r.attempted );
           ("peak_rss_mb", "MB", Printf.sprintf "%.6g" r.rss_mb);
         ]
        @ r.e2e);
      get (Spec.select ~what:"end-to-end" spec.Spec.end_to_end (end_to_end r))
    end
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (r.failed = 0));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", Json.Obj (List.map metric_json metrics));
          ]))
