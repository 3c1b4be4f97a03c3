(** CRC-32 (IEEE 802.3 polynomial, reflected).

    Used by the persistent log to make entries self-validating: an entry whose
    stored checksum matches the checksum of its contents is known to have been
    written back completely, so no write ordering between payload and "commit
    marker" is needed (the checksum is the commit marker).

    {b Implementation.} One C stub per entry point, [noalloc] and over
    unboxed ints, so a call allocates at most its [int32] result. Two paths
    compute the same function:
    - {e the fold}: on x86-64, when CPUID reports PCLMULQDQ, a range of at
      least 64 bytes is folded 64 bytes at a time in four 128-bit lanes by
      carry-less multiplication, the lanes are folded into one, further
      16-byte blocks are folded into it, and a Barrett reduction brings it
      to 32 bits (Gopal et al., Intel 2009). The fold's bytes are the
      range's leading multiple of 16; the rest take the table path.
    - {e the table}: slicing-by-8 (Kounavis and Berry), eight 256-entry
      tables filled once when this module is initialised, 8 bytes per
      step. It checksums ranges shorter than 64 bytes, the fold's tail,
      {!int64}, and every range on a host without the instruction.

    The choice is made at run time, once, from CPUID; the fold is compiled
    under a per-function target attribute, so the library builds for any
    x86-64 (and, without the fold, for any other architecture). Both paths
    give the same value for every input. {!bytes_table} is the table path
    alone, so tests hold each path to a bitwise reference on every host. *)

val string : ?init:int32 -> string -> int32
(** [string s] is the CRC-32 of [s]. [init] continues a running checksum. *)

val bytes : ?init:int32 -> Bytes.t -> pos:int -> len:int -> int32
(** [bytes b ~pos ~len] checksums the range [pos, pos+len) of [b].
    @raise Invalid_argument if the range is out of bounds. *)

val int64 : ?init:int32 -> int64 -> int32
(** [int64 x] checksums the 8 little-endian bytes of [x], folded from the
    int itself with no buffer allocated. *)

val length_prefixed : string -> pos:int -> len:int -> int
(** [length_prefixed s ~pos ~len] is the CRC-32 of [len] as 8
    little-endian bytes followed by the range [pos, pos+len) of [s], as an
    int in [0, 2{^32}): a log entry's checksum, in one call that allocates
    nothing. [Int32.of_int] of it is [bytes ~init:(int64 (Int64.of_int
    len))] of that range.
    @raise Invalid_argument if the range is out of bounds. *)

val bytes_table : ?init:int32 -> Bytes.t -> pos:int -> len:int -> int32
(** [bytes] on the table path alone, whatever the CPU: what a host without
    PCLMULQDQ computes for every range. Tests hold the two paths to each
    other with it on every host.
    @raise Invalid_argument if the range is out of bounds. *)
