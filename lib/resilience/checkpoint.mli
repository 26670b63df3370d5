(** Versioned, checksummed checkpoint container files.

    A checkpoint is an opaque payload (the writer's serialized
    progress) wrapped in a self-validating binary envelope and
    published atomically ({!Atomic_file}, with the previous version
    kept as [path ^ ".bak"]). The envelope:

    {v
    offset  size  field
    0       8     magic "SNLBCKPT"
    8       4     CRC-32 (big-endian) of every byte from offset 12 on
    12      4     format version (currently 1)
    16      4+k   kind: length-prefixed string, e.g. "snlb-search-driver-3"
    ..      ..    meta: count, then length-prefixed key/value pairs
    ..      4+p   payload: length-prefixed bytes
    v}

    All integers are unsigned 32-bit big-endian; nothing may follow
    the payload. {!read} re-derives the CRC over the tail, so {e any}
    single corrupted byte is caught: a flip in the magic fails the
    magic check, a flip in the CRC field itself or anywhere after it
    fails the checksum comparison. Torn files (truncated at any byte)
    fail the length or checksum checks. Validation never raises —
    every defect is an [Error] with a reason, so a crash mid-write can
    never take down the process that restarts afterwards.

    The [kind] string names the writer ({!Driver}, {!Theorem41}); the
    [meta] pairs carry the writer's compatibility keys (width [n],
    restriction flags, level reached) that are checked before the
    payload is trusted. Observability: writes bump
    ["checkpoint.writes"] / ["checkpoint.bytes"] and time into the
    ["checkpoint.write_ms"] histogram; reads time into
    ["checkpoint.restore_ms"]. *)

type t = {
  kind : string;  (** writer identity, validated on resume *)
  meta : (string * string) list;  (** writer compatibility keys *)
  payload : string;  (** opaque serialized progress *)
}

val write :
  ?attempts:int -> ?backoff_ms:float -> path:string -> t -> (unit, string) result
(** Envelope, checksum and atomically publish, keeping any previous
    [path] as [path ^ ".bak"]. Never raises.

    Transient write failures (a full disk clearing up, an NFS blip, an
    injected ["ckpt-write-fail"]) are retried up to [attempts] times
    total (default 3) with exponential backoff starting at
    [backoff_ms] (default 10, doubling, capped at 1 s per sleep); each
    retry bumps the ["checkpoint.retries"] counter. After the budget
    the last error is returned unchanged — a permanently unwritable
    checkpoint still hard-fails the run. *)

val read : path:string -> (t, string) result
(** Read and validate one file: magic, version, structural lengths,
    CRC, no trailing bytes. Never raises. *)

val load : path:string -> (t * [ `Primary | `Backup of string ], string) result
(** {!read} [path]; if that fails for any reason (missing, torn,
    corrupted), fall back to [path ^ ".bak"]. [`Backup reason] reports
    why the primary was rejected so callers can warn; [Error] means
    both copies are unusable (the message covers both). *)
