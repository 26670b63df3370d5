type t = {
  kind : string;
  meta : (string * string) list;
  payload : string;
}

let magic = "SNLBCKPT"
let version = 1

let c_writes = Metrics.counter "checkpoint.writes"
let c_bytes = Metrics.counter "checkpoint.bytes"
let c_retries = Metrics.counter "checkpoint.retries"
let h_write_ms = Metrics.histogram "checkpoint.write_ms"
let h_restore_ms = Metrics.histogram "checkpoint.restore_ms"

(* One allocation of the final size: at n = 9 a payload is tens of MB,
   and every extra copy is transient heap the size of the checkpoint. *)
let encode t =
  let field s = 4 + String.length s in
  let meta = List.fold_left (fun a (k, v) -> a + field k + field v) 0 t.meta in
  let size = 16 + field t.kind + 4 + meta + field t.payload in
  let b = Bytes.create size and pos = ref 12 in
  let u32 v =
    Bytes.set_int32_be b !pos (Int32.of_int v);
    pos := !pos + 4
  in
  let lstring s =
    u32 (String.length s);
    Bytes.blit_string s 0 b !pos (String.length s);
    pos := !pos + String.length s
  in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  u32 version;
  lstring t.kind;
  u32 (List.length t.meta);
  List.iter
    (fun (k, v) ->
      lstring k;
      lstring v)
    t.meta;
  lstring t.payload;
  Bytes.set_int32_be b 8 (Int32.of_int (Crc32.update_bytes 0 b 12 (size - 12)));
  Bytes.unsafe_to_string b

let write ?(attempts = 3) ?(backoff_ms = 10.) ~path t =
  let t0 = Clock.wall () in
  let contents = encode t in
  let rec go attempt =
    match Atomic_file.write ~backup:true ~path contents with
    | Ok () ->
        Metrics.incr c_writes;
        Metrics.add c_bytes (String.length contents);
        Metrics.observe h_write_ms ((Clock.wall () -. t0) *. 1e3);
        Ok ()
    | Error _ as e ->
        if attempt >= attempts then e
        else begin
          Metrics.incr c_retries;
          Unix.sleepf
            (Float.min 1.0
               (backoff_ms *. (2. ** float_of_int (attempt - 1)) /. 1000.));
          go (attempt + 1)
        end
  in
  go 1

(* --- reading --- *)

exception Bad of string

let u32 s pos =
  if pos + 4 > String.length s then raise (Bad "truncated integer field");
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let lstring s pos =
  let len = u32 s pos in
  if pos + 4 + len > String.length s then raise (Bad "truncated string field");
  (String.sub s (pos + 4) len, pos + 4 + len)

let decode s =
  let mlen = String.length magic in
  if String.length s < mlen + 8 then raise (Bad "file too short");
  if String.sub s 0 mlen <> magic then raise (Bad "bad magic (not a checkpoint)");
  let stored_crc = u32 s mlen in
  let body_pos = mlen + 4 in
  let crc = Crc32.update 0 s body_pos (String.length s - body_pos) in
  if crc <> stored_crc then
    raise
      (Bad (Printf.sprintf "CRC mismatch (stored %08x, computed %08x)" stored_crc crc));
  let v = u32 s body_pos in
  if v <> version then raise (Bad (Printf.sprintf "unsupported format version %d" v));
  let kind, pos = lstring s (body_pos + 4) in
  let nmeta = u32 s pos in
  if nmeta > 0xFFFF then raise (Bad "implausible meta count");
  let pos = ref (pos + 4) in
  let meta = ref [] in
  for _ = 1 to nmeta do
    let k, p = lstring s !pos in
    let v, p = lstring s p in
    meta := (k, v) :: !meta;
    pos := p
  done;
  let payload, pos = lstring s !pos in
  if pos <> String.length s then raise (Bad "trailing bytes after payload");
  { kind; meta = List.rev !meta; payload }

let read ~path =
  let t0 = Clock.wall () in
  let contents =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error m -> Error m
  in
  match contents with
  | Error m -> Error (Printf.sprintf "cannot read checkpoint %s: %s" path m)
  | Ok s -> (
      match decode s with
      | t ->
          Metrics.observe h_restore_ms ((Clock.wall () -. t0) *. 1e3);
          Ok t
      | exception Bad m ->
          Error (Printf.sprintf "invalid checkpoint %s: %s" path m))

let load ~path =
  match read ~path with
  | Ok t -> Ok (t, `Primary)
  | Error primary -> (
      match read ~path:(Atomic_file.backup_path path) with
      | Ok t -> Ok (t, `Backup primary)
      | Error backup -> Error (Printf.sprintf "%s; fallback also failed: %s" primary backup))
