(** CRC-32 (IEEE 802.3 polynomial, reflected).

    Used by the persistent log to make entries self-validating: an entry whose
    stored checksum matches the checksum of its contents is known to have been
    written back completely, so no write ordering between payload and "commit
    marker" is needed (the checksum is the commit marker). *)

val string : ?init:int32 -> string -> int32
(** [string s] is the CRC-32 of [s]. [init] continues a running checksum. *)

val bytes : ?init:int32 -> Bytes.t -> pos:int -> len:int -> int32
(** [bytes b ~pos ~len] checksums the range [pos, pos+len) of [b].
    @raise Invalid_argument if the range is out of bounds. *)

val int64 : ?init:int32 -> int64 -> int32
(** [int64 x] checksums the 8 little-endian bytes of [x], folded from the
    int itself with no buffer allocated. *)
