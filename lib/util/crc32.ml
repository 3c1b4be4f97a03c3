(* The arithmetic runs on native [int]s, not [Int32.t]: every [Int32]
   operation allocates a box, which for a per-byte loop means ~15 words
   per input byte — the log's CRC frame would dominate the allocation
   rate of an update. A CRC-32 fits in 32 bits, so on a 64-bit host the
   whole computation stays unboxed; only the result is boxed, once. *)

let mask32 = 0xFFFFFFFF

(* Slicing-by-8 (Kounavis & Berry): eight 256-entry tables, flattened
   into one array at [k * 256]. Table 0 is the classic byte-at-a-time
   table; table k advances a byte's contribution through k further zero
   bytes, so one step folds 8 input bytes with 8 independent lookups
   instead of 8 dependent ones. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
         else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

(* The little-endian 64-bit word at [i], loaded without a bounds check:
   [bytes] checks its whole range once, before its loop. *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word64 b i =
  if Sys.big_endian then swap64 (unsafe_get64 b i) else unsafe_get64 b i

(* One slicing-by-8 step: fold the 8 bytes whose little-endian halves are
   [lo] and [hi] into [crc] (the running register, pre-inverted). *)
let[@inline] step8 t crc lo hi =
  let lo = crc lxor lo in
  Array.unsafe_get t ((7 lsl 8) lor (lo land 0xFF))
  lxor Array.unsafe_get t ((6 lsl 8) lor ((lo lsr 8) land 0xFF))
  lxor Array.unsafe_get t ((5 lsl 8) lor ((lo lsr 16) land 0xFF))
  lxor Array.unsafe_get t ((4 lsl 8) lor (lo lsr 24))
  lxor Array.unsafe_get t ((3 lsl 8) lor (hi land 0xFF))
  lxor Array.unsafe_get t ((2 lsl 8) lor ((hi lsr 8) land 0xFF))
  lxor Array.unsafe_get t ((1 lsl 8) lor ((hi lsr 16) land 0xFF))
  lxor Array.unsafe_get t (hi lsr 24)

let bytes ?(init = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes: range out of bounds";
  let t = Lazy.force tables in
  let crc = ref (Int32.to_int init land mask32 lxor mask32) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let w = word64 b !i in
    crc :=
      step8 t !crc
        (Int64.to_int w land mask32)
        (Int64.to_int (Int64.shift_right_logical w 32));
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    let c = !crc in
    crc :=
      Array.unsafe_get t ((c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF)
      lxor (c lsr 8)
  done;
  Int32.of_int (!crc lxor mask32)

let string ?init s =
  bytes ?init (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* The 8 bytes folded straight from the int's halves: no frame buffer. *)
let int64 ?(init = 0l) x =
  let lo = Int64.to_int x land mask32
  and hi = Int64.to_int (Int64.shift_right_logical x 32) land mask32 in
  Int32.of_int
    (step8 (Lazy.force tables) (Int32.to_int init land mask32 lxor mask32) lo hi
    lxor mask32)
