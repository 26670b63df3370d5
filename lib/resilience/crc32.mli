(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320]), the checksum guarding
    checkpoint payloads against torn or bit-flipped files.

    Table-driven, one byte per step; values fit OCaml's native [int]
    (always in [0, 2^32)). The empty string checksums to [0] and the
    standard check vector ["123456789"] to [0xCBF43926]. *)

val string : string -> int
(** CRC-32 of the whole string. *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] extends [crc] with [s.[pos .. pos+len-1]],
    so [update (update 0 a 0 la) b 0 lb = string (a ^ b)].
    @raise Invalid_argument if the range is outside [s]. *)

val update_bytes : int -> bytes -> int -> int -> int
(** {!update} over a byte sequence: how a writer checksums the buffer
    it is still filling. *)
