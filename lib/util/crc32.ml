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

(* Little-endian 32-bit word at [i] as a non-negative int. *)
let word b i = Int32.to_int (Bytes.get_int32_le b i) land mask32

let bytes ?(init = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes: range out of bounds";
  let t = Lazy.force tables in
  let tbl k i = Array.unsafe_get t ((k lsl 8) lor i) in
  let crc = ref (Int32.to_int init land mask32 lxor mask32) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = !crc lxor word b !i and hi = word b (!i + 4) in
    crc :=
      tbl 7 (lo land 0xFF)
      lxor tbl 6 ((lo lsr 8) land 0xFF)
      lxor tbl 5 ((lo lsr 16) land 0xFF)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (hi land 0xFF)
      lxor tbl 2 ((hi lsr 8) land 0xFF)
      lxor tbl 1 ((hi lsr 16) land 0xFF)
      lxor tbl 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    let c = !crc in
    crc :=
      tbl 0 ((c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF) lxor (c lsr 8)
  done;
  Int32.of_int (!crc lxor mask32)

let string ?init s =
  bytes ?init (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let int64 ?init x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 x;
  bytes ?init b ~pos:0 ~len:8
