(* The host record printed with every result, and process probes. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_file_opt path = try Some (read_file path) with Sys_error _ -> None

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let status =
    match read_file_opt (Printf.sprintf "/proc/%s/status" pid) with
    | Some s -> s
    | None -> failwith "peak_rss_mb: /proc/<pid>/status is unreadable"
  in
  let line =
    List.find_opt
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  match line with
  | None -> failwith "peak_rss_mb: no VmHWM line"
  | Some l ->
      let words = String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) l) in
      match List.find_map int_of_string_opt words with
      | Some kb -> float_of_int kb /. 1024.
      | None -> failwith "peak_rss_mb: unreadable VmHWM line"

(* The revision of a git checkout in the current directory, read from
   [.git] directly so nothing outside the directory is consulted; a
   plain source tree reports "unknown". *)
let git_revision () =
  let trim = String.trim in
  match read_file_opt ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = trim head in
      match String.index_opt head ' ' with
      | Some i when String.sub head 0 i = "ref:" -> (
          let r = trim (String.sub head (i + 1) (String.length head - i - 1)) in
          match read_file_opt (".git/" ^ r) with
          | Some h -> trim h
          | None -> (
              match read_file_opt ".git/packed-refs" with
              | None -> "unknown"
              | Some packed ->
                  String.split_on_char '\n' packed
                  |> List.find_map (fun l ->
                         match String.split_on_char ' ' l with
                         | [ h; name ] when name = r -> Some h
                         | _ -> None)
                  |> Option.value ~default:"unknown"))
      | _ -> head)

let record ~workload ~seed ~seconds ~traced ~domains extra =
  Json.Obj
    ([ ("nproc", Json.Int (Domain.recommended_domain_count ()));
       ("domains_used", Json.Int domains);
       ("ocaml", Json.Str Sys.ocaml_version);
       ("git_revision", Json.Str (git_revision ()));
       ("workload", Json.Str workload);
       ("seed", Json.Int seed);
       ("seconds", Json.Int seconds);
       ("traced", Json.Bool traced);
     ]
    @ extra)
