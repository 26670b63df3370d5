(** Minimal JSON values: the one JSON printer of the library.

    Trace lines ({!Sink.to_json}), lint diagnostics ([Diag.to_json]),
    serve requests and responses, and the BENCH files all go through
    this module. A deliberately small RFC 8259 subset — objects,
    arrays, strings with full escape handling (including surrogate
    pairs), 63-bit ints, floats, booleans, null — with no dependency
    beyond the stdlib. Numbers without a fraction or exponent parse as
    {!Int}; everything else numeric as {!Float}. Object key order is
    preserved on both parse and print.

    Float rule: a finite float prints as the shortest of [%.15g],
    [%.16g] and [%.17g] that reads back to the same float, with [.0]
    appended when that text is all sign and digits, so a {!Float}
    reads back as a {!Float}. Non-finite floats print as [0]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One-line rendering, strings escaped per RFC 8259, floats by the
    float rule above. *)

val of_string : string -> (t, string) result
(** Strict parse of exactly one value (trailing garbage and numbers
    with leading zeros are errors). Errors carry the byte offset. *)

val member : string -> t -> t option
(** Field lookup; [None] on non-objects and missing keys. *)

val to_int : t -> int option

val to_str : t -> string option

val to_list : t -> t list option

val to_bool : t -> bool option
