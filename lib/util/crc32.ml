(* The computation is C (crc32_stubs.c): a table loop everywhere, and a
   carry-less-multiply fold for long ranges where the CPU has one. The
   stubs take and return CRC values in untagged ints and allocate
   nothing; only an [int32] result is boxed. *)

external init_tables : unit -> unit = "onll_crc32_init"

let () = init_tables ()

external crc_bytes :
  (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) = "onll_crc32_bytes_byte" "onll_crc32_bytes"
[@@noalloc]

external crc_bytes_table :
  (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) = "onll_crc32_bytes_table_byte" "onll_crc32_bytes_table"
[@@noalloc]

external crc_int64 : (int[@untagged]) -> (int64[@unboxed]) -> (int[@untagged])
  = "onll_crc32_int64_byte" "onll_crc32_int64"
[@@noalloc]

external crc_length_prefixed :
  string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "onll_crc32_length_prefixed_byte" "onll_crc32_length_prefixed"
[@@noalloc]

let check_range b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32.bytes: range out of bounds"

let bytes ?(init = 0l) b ~pos ~len =
  check_range b ~pos ~len;
  Int32.of_int (crc_bytes (Int32.to_int init) b pos len)

let bytes_table ?(init = 0l) b ~pos ~len =
  check_range b ~pos ~len;
  Int32.of_int (crc_bytes_table (Int32.to_int init) b pos len)

let string ?init s =
  bytes ?init (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let int64 ?(init = 0l) x = Int32.of_int (crc_int64 (Int32.to_int init) x)

let length_prefixed s ~pos ~len =
  check_range (Bytes.unsafe_of_string s) ~pos ~len;
  crc_length_prefixed s pos len
