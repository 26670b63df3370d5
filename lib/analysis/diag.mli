(** Typed diagnostics for the network analyzer.

    Every fact the analyzer wants to surface — a structural smell, a
    semantic proof, a topology-conformance verdict, a load failure —
    becomes a {!t}: a stable machine-readable code, a severity, an
    optional span (1-based level, 0-based gate index within the level)
    and a human message. The code table is documented in DESIGN.md and
    frozen: codes are append-only so downstream tooling (CI greps, the
    JSON consumers of [snlb lint --format json]) can match on them.

    Severity semantics: [Error] means the input is unusable (parse
    failure, invalid structure) — [snlb lint] exits 1; [Warning] means
    the network is valid but suspicious (dead comparator, untouched
    channel, descending comparator); [Info] records proved facts
    (sortedness verdicts, conformance certificates, redundancy). A
    non-sorting network is {e not} an error: the analyzer lints
    mergers and partial circuits too. *)

type severity = Error | Warning | Info

type span = { level : int; gate : int option }
(** [level] is 1-based (matching [Network.t] level order and the
    [level N:] lines of the file format); [gate] is the 0-based index
    within that level's gate list. For parse diagnostics, [level]
    carries the source line number instead. *)

type t = {
  code : string;  (** e.g. ["SNL201"]; stable, append-only *)
  severity : severity;
  span : span option;
  message : string;
}

val make : ?span:span -> code:string -> severity:severity -> string -> t

val severity_name : severity -> string
(** ["error"] / ["warning"] / ["info"]. *)

val to_text : t -> string
(** One human line, e.g.
    ["warning[SNL201] level 3 gate 0: dead comparator (4,5): ..."]. *)

val to_json : t -> Json.t
(** One JSON object, keys in this order:
    [{"code":...,"severity":...,"level":N,"gate":N,"message":...}]
    ([level]/[gate] omitted when absent). [snlb lint --format json]
    prints it with {!Json.to_string}, one object per line; the serve
    [lint] verb embeds it in its response. *)

val count : t list -> severity -> int

val describe : string -> string option
(** Short description of a diagnostic code, if known — the code table. *)

val codes : (string * string) list
(** All known codes with their one-line descriptions, sorted. *)
