open Onll_util

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* {1 CRC32} *)

let test_crc_known_vectors () =
  (* Standard IEEE CRC-32 check value. *)
  check Alcotest.int32 "123456789" 0xCBF43926l (Crc32.string "123456789");
  check Alcotest.int32 "empty" 0l (Crc32.string "");
  check Alcotest.int32 "single byte" 0xD202EF8Dl (Crc32.string "\x00");
  check Alcotest.int32 "abc" 0x352441C2l (Crc32.string "abc")

let test_crc_incremental () =
  let whole = Crc32.string "hello world" in
  let part = Crc32.string ~init:(Crc32.string "hello ") "world" in
  check Alcotest.int32 "incremental = whole" whole part

let test_crc_bytes_range () =
  let b = Bytes.of_string "xxhelloyy" in
  check Alcotest.int32 "range" (Crc32.string "hello")
    (Crc32.bytes b ~pos:2 ~len:5);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Crc32.bytes: range out of bounds") (fun () ->
      ignore (Crc32.bytes b ~pos:5 ~len:10))

let test_crc_int64 () =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 0x0123456789ABCDEFL;
  check Alcotest.int32 "int64 = 8 LE bytes"
    (Crc32.bytes b ~pos:0 ~len:8)
    (Crc32.int64 0x0123456789ABCDEFL)

(* The plain byte-at-a-time CRC-32 loop, kept as the oracle for the
   table-sliced implementation. *)
let crc_bytewise ?(init = 0l) b ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
          else c := !c lsr 1
        done;
        !c)
  in
  let crc = ref (Int32.to_int init land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    crc :=
      table.((!crc lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let test_crc_matches_bytewise () =
  check Alcotest.int32 "oracle check value" 0xCBF43926l
    (crc_bytewise (Bytes.of_string "123456789") ~pos:0 ~len:9);
  (* high bits set in every lane, so sign handling of the word loads shows *)
  let b = Bytes.init 96 (fun i -> Char.chr ((i * 151 + 77) land 0xFF)) in
  for len = 0 to 64 do
    for pos = 0 to 9 do
      let expect = crc_bytewise b ~pos ~len in
      check Alcotest.int32
        (Printf.sprintf "pos %d len %d" pos len)
        expect (Crc32.bytes b ~pos ~len);
      let init = 0x89ABCDEFl in
      check Alcotest.int32
        (Printf.sprintf "init, pos %d len %d" pos len)
        (crc_bytewise ~init b ~pos ~len)
        (Crc32.bytes ~init b ~pos ~len);
      (* chaining at every split point gives the whole-range value *)
      for k = 0 to len do
        if
          Crc32.bytes
            ~init:(Crc32.bytes b ~pos ~len:k)
            b ~pos:(pos + k) ~len:(len - k)
          <> expect
        then Alcotest.failf "chained at %d: pos %d len %d" k pos len
      done
    done
  done

(* Random contents, offsets and lengths up to 4 KiB, and one multi-MiB
   buffer: the word loop's unchecked loads against the byte-wise
   reference. *)
let test_crc_random_ranges () =
  let rng = Random.State.make [| 0xC3C |] in
  let b = Bytes.init 8192 (fun _ -> Char.chr (Random.State.int rng 256)) in
  for trial = 1 to 2000 do
    let len = Random.State.int rng 4097 in
    let pos = Random.State.int rng 4096 in
    let init = Random.State.bits32 rng in
    check Alcotest.int32
      (Printf.sprintf "trial %d: pos %d len %d" trial pos len)
      (crc_bytewise ~init b ~pos ~len)
      (Crc32.bytes ~init b ~pos ~len)
  done;
  let big =
    Bytes.init ((3 lsl 20) + 5) (fun _ -> Char.chr (Random.State.int rng 256))
  in
  List.iter
    (fun pos ->
      let len = Bytes.length big - pos in
      check Alcotest.int32
        (Printf.sprintf "multi-MiB pos %d" pos)
        (crc_bytewise big ~pos ~len) (Crc32.bytes big ~pos ~len))
    [ 0; 3 ]

let prop_crc_detects_single_bit_flip =
  QCheck.Test.make ~name:"crc detects any single bit flip" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (pair small_nat small_nat))
    (fun (s, (byte, bit)) ->
      QCheck.assume (String.length s > 0);
      let byte = byte mod String.length s and bit = bit mod 8 in
      let b = Bytes.of_string s in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      Crc32.string s <> Crc32.string (Bytes.to_string b))

(* [Crc32.int64] folds the int's bytes without a frame buffer: it must
   equal [Crc32.bytes] over the 8 little-endian bytes, from any running
   checksum. *)
let prop_crc_int64_is_bytes =
  QCheck.Test.make ~name:"int64 = bytes over its 8 little-endian bytes"
    ~count:1000
    QCheck.(pair int64 int32)
    (fun (x, init) ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 x;
      Crc32.int64 ~init x = Crc32.bytes ~init b ~pos:0 ~len:8
      && Crc32.int64 x = Crc32.bytes b ~pos:0 ~len:8)

(* The CRC by its definition, one bit at a time: no table, no fold. Both
   paths of [Crc32] are held to it, the fold's lane edges crossed: two
   lengths in three are drawn next to a multiple of 16 or of 64. The table
   path is checked at every length too, through [Crc32.bytes_table], so
   a host whose CPU takes the fold still tests what one without it
   runs. *)
let crc_bitwise ?(init = 0l) b ~pos ~len =
  let crc = ref (Int32.to_int init land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      crc := (!crc lsr 1) lxor (if !crc land 1 <> 0 then 0xEDB88320 else 0)
    done
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let prop_crc_paths_match_bitwise =
  let check_value = Bytes.of_string "123456789" in
  let len =
    let near m ~upto =
      QCheck.Gen.(
        map2
          (fun k d -> max 0 ((k * m) + d))
          (int_range 0 upto) (int_range (-1) 1))
    in
    QCheck.Gen.(
      oneof [ int_range 0 4096; near 16 ~upto:256; near 64 ~upto:64 ])
  in
  QCheck.Test.make ~name:"fold and table paths = the bitwise CRC" ~count:300
    QCheck.(
      make
        ~print:(fun (len, pos, init, seed) ->
          Printf.sprintf "len %d pos %d init %ld seed %d" len pos init seed)
        Gen.(quad len (int_range 0 63) int32 int))
    (fun (len, pos, init, seed) ->
      let rng = Random.State.make [| seed |] in
      let b =
        Bytes.init (pos + len + 7) (fun _ ->
            Char.chr (Random.State.int rng 256))
      in
      let expect = crc_bitwise ~init b ~pos ~len in
      crc_bitwise check_value ~pos:0 ~len:9 = 0xCBF43926l
      && Crc32.bytes check_value ~pos:0 ~len:9 = 0xCBF43926l
      && Crc32.bytes_table check_value ~pos:0 ~len:9 = 0xCBF43926l
      && Crc32.bytes ~init b ~pos ~len = expect
      && Crc32.bytes_table ~init b ~pos ~len = expect)

(* [Crc32.length_prefixed] is a log entry's checksum in one call: it
   must equal the two-call form, the length's 8 little-endian bytes
   seeding the checksum of the range, at every length from 0 to 300
   (the table path below 64 bytes, the fold above where the CPU has
   it) and at several offsets. *)
let prop_crc_length_prefixed =
  QCheck.Test.make ~name:"length_prefixed = int64 length, then bytes"
    ~count:20
    QCheck.(pair (int_range 0 7) int)
    (fun (pos, seed) ->
      let rng = Random.State.make [| seed |] in
      let s =
        String.init (pos + 300) (fun _ -> Char.chr (Random.State.int rng 256))
      in
      List.for_all
        (fun len ->
          let two_calls =
            Crc32.bytes
              ~init:(Crc32.int64 (Int64.of_int len))
              (Bytes.of_string s) ~pos ~len
          in
          Int32.of_int (Crc32.length_prefixed s ~pos ~len) = two_calls)
        (List.init 301 Fun.id))

(* {1 SplitMix} *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 42 and b = Splitmix.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Splitmix.next_int64 a)
      (Splitmix.next_int64 b)
  done

let test_splitmix_seeds_differ () =
  let a = Splitmix.create 1 and b = Splitmix.create 2 in
  let xs = List.init 10 (fun _ -> Splitmix.next_int64 a) in
  let ys = List.init 10 (fun _ -> Splitmix.next_int64 b) in
  check Alcotest.bool "different streams" false (xs = ys)

let test_splitmix_split_independent () =
  let a = Splitmix.create 7 in
  let child = Splitmix.split a in
  let xs = List.init 10 (fun _ -> Splitmix.next_int64 a) in
  let ys = List.init 10 (fun _ -> Splitmix.next_int64 child) in
  check Alcotest.bool "split stream differs" false (xs = ys)

let test_splitmix_copy () =
  let a = Splitmix.create 9 in
  ignore (Splitmix.next_int64 a);
  let b = Splitmix.copy a in
  check Alcotest.int64 "copy continues identically" (Splitmix.next_int64 a)
    (Splitmix.next_int64 b)

let prop_splitmix_int_in_range =
  QCheck.Test.make ~name:"int stays in range" ~count:500
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Splitmix.create seed in
      let x = Splitmix.int rng bound in
      x >= 0 && x < bound)

let test_splitmix_int_bad_bound () =
  let rng = Splitmix.create 1 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Splitmix.int rng 0))

let test_splitmix_shuffle_permutes () =
  let rng = Splitmix.create 5 in
  let a = Array.init 20 Fun.id in
  Splitmix.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check
    Alcotest.(array int)
    "same elements" (Array.init 20 Fun.id) sorted

let test_splitmix_pick () =
  let rng = Splitmix.create 3 in
  for _ = 1 to 50 do
    let x = Splitmix.pick rng [ 1; 2; 3 ] in
    check Alcotest.bool "picked member" true (List.mem x [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty pick"
    (Invalid_argument "Splitmix.pick: empty list") (fun () ->
      ignore (Splitmix.pick rng []))

(* {1 Codec} *)

let roundtrip codec v = Codec.decode codec (Codec.encode codec v) = v

let test_codec_primitives () =
  check Alcotest.bool "int" true (roundtrip Codec.int 42);
  check Alcotest.bool "int negative" true (roundtrip Codec.int (-7));
  check Alcotest.bool "int min" true (roundtrip Codec.int min_int);
  check Alcotest.bool "int max" true (roundtrip Codec.int max_int);
  check Alcotest.bool "bool" true (roundtrip Codec.bool true);
  check Alcotest.bool "string" true (roundtrip Codec.string "hello \x00 bytes");
  check Alcotest.bool "empty string" true (roundtrip Codec.string "");
  check Alcotest.bool "float" true (roundtrip Codec.float 3.14159);
  check Alcotest.bool "float nan-safe" true
    (Float.is_nan (Codec.decode Codec.float (Codec.encode Codec.float Float.nan)));
  check Alcotest.bool "int64" true (roundtrip Codec.int64 (-1L));
  check Alcotest.bool "int32" true (roundtrip Codec.int32 0xDEADBEEFl);
  check Alcotest.bool "char" true (roundtrip Codec.char '\255');
  check Alcotest.bool "unit" true (roundtrip Codec.unit ())

let test_codec_combinators () =
  let open Codec in
  check Alcotest.bool "pair" true (roundtrip (pair int string) (1, "x"));
  check Alcotest.bool "triple" true
    (roundtrip (triple int bool string) (5, false, "yo"));
  check Alcotest.bool "list" true (roundtrip (list int) [ 1; 2; 3 ]);
  check Alcotest.bool "empty list" true (roundtrip (list int) []);
  check Alcotest.bool "nested" true
    (roundtrip (list (pair string (option int))) [ ("a", Some 1); ("b", None) ]);
  check Alcotest.bool "array" true (roundtrip (array int) [| 9; 8 |]);
  check Alcotest.bool "skip: the rest of the input" true
    (decode (pair int skip) (encode int 3 ^ "rest") = (3, ()))

let test_codec_errors () =
  let open Codec in
  let is_decode_error f =
    match f () with
    | exception Decode_error _ -> true
    | _ -> false
  in
  check Alcotest.bool "truncated int" true
    (is_decode_error (fun () -> decode int "abc"));
  check Alcotest.bool "trailing bytes" true
    (is_decode_error (fun () -> decode bool "\001\000"));
  check Alcotest.bool "bad bool byte" true
    (is_decode_error (fun () -> decode bool "\002"));
  check Alcotest.bool "bad option tag" true
    (is_decode_error (fun () -> decode (option int) "\007"));
  check Alcotest.bool "string length beyond input" true
    (is_decode_error (fun () ->
         decode string "\255\255\255\255\255\255\255\000abc"));
  (* an int64 outside the int range would decode with its top bit lost *)
  let le64 n = encode int64 (Int64.logor Int64.min_int (Int64.of_int n)) in
  check Alcotest.bool "int outside the int range" true
    (is_decode_error (fun () -> decode int (le64 5)));
  check Alcotest.bool "string length outside the int range" true
    (is_decode_error (fun () -> decode string (le64 3 ^ "xxx")));
  check Alcotest.bool "variant body length outside the int range" true
    (is_decode_error (fun () ->
         decode Onll_specs.Kv.update_codec
           (encode int 0 ^ le64 18 ^ encode string "k" ^ encode string "v")))

let test_codec_tagged () =
  let open Codec in
  let a = case 0 int (fun n -> `A n)
  and b = case 1 string (fun s -> `B s)
  and c = const 3 `C in
  let v =
    variant "ab" [ Case a; Case b; Case c ] (function
      | `A n -> Is (a, n)
      | `B s -> Is (b, s)
      | `C -> Is (c, ()))
  in
  check Alcotest.bool "tag A" true (roundtrip v (`A 4));
  check Alcotest.bool "tag B" true (roundtrip v (`B "hey"));
  check Alcotest.bool "bodiless tag" true (roundtrip v `C);
  check Alcotest.string "the frame: tag, body length, body"
    (encode int 1 ^ encode int 11 ^ encode string "hey")
    (encode v (`B "hey"));
  let is_decode_error s =
    match decode v s with exception Decode_error _ -> true | _ -> false
  in
  check Alcotest.bool "unknown tag" true
    (is_decode_error (encode int 2 ^ encode int 0));
  check Alcotest.bool "negative tag" true
    (is_decode_error (encode int (-1) ^ encode int 0));
  check Alcotest.bool "body longer than its case" true
    (is_decode_error (encode int 0 ^ encode int 9 ^ encode int 4 ^ "x"));
  check Alcotest.bool "tag reused" true
    (match variant "cc" [ Case c; Case c ] (fun _ -> Is (c, ())) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_codec_int_roundtrip =
  QCheck.Test.make ~name:"int codec roundtrips" ~count:500 QCheck.int
    (fun n -> roundtrip Codec.int n)

let prop_codec_string_roundtrip =
  QCheck.Test.make ~name:"string codec roundtrips" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s -> roundtrip Codec.string s)

let prop_codec_list_roundtrip =
  QCheck.Test.make ~name:"int list codec roundtrips" ~count:200
    QCheck.(list int)
    (fun l -> roundtrip Codec.(list int) l)

let prop_codec_canonical =
  QCheck.Test.make ~name:"equal values encode equally" ~count:200
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (a, b) ->
      let open Codec in
      (a = b) = (encode (list int) a = encode (list int) b))

(* An encode writes into chunks of 64 KiB. A string whose length and
   body exactly fill what is left of a chunk, or overflow it by one
   byte, is the bytes the definition gives (length, then body) and
   decodes back, whether it starts a chunk or follows other bytes. *)
let test_codec_string_at_chunk_end () =
  let open Codec in
  let chunk = 1 lsl 16 in
  let le64 n =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int n);
    Bytes.to_string b
  in
  List.iter
    (fun (before, over) ->
      let first = String.make before 'a' in
      let room = chunk - (if before = 0 then 0 else 8 + before) in
      let body = String.init (room - 8 + over) (fun i -> Char.chr (i land 255)) in
      let expect =
        (if before = 0 then "" else le64 before ^ first)
        ^ le64 (String.length body) ^ body
      in
      let got =
        if before = 0 then encode string body
        else encode (pair string string) (first, body)
      in
      let what = Printf.sprintf "after %d bytes, %+d past the chunk" before over in
      check Alcotest.bool (what ^ ": bytes") true (got = expect);
      check Alcotest.bool (what ^ ": roundtrip") true
        (if before = 0 then decode string got = body
         else decode (pair string string) got = (first, body)))
    [ (0, 0); (0, 1); (100, 0); (100, 1); (chunk - 200, 0); (chunk - 200, 1) ]

(* A codec that encodes inside its own write gets chunks of its own:
   the outer encoding is not overwritten. *)
let test_codec_nested_encode () =
  let open Codec in
  let inner = list string in
  let nested = map (decode inner) (encode inner) string in
  let v = List.init 50 (fun i -> String.make (i * 40) (Char.chr (65 + (i mod 26)))) in
  check Alcotest.bool "nested roundtrip" true
    (decode (pair nested nested) (encode (pair nested nested) (v, List.rev v))
    = (v, List.rev v));
  check Alcotest.bool "nested = the string of the inner encoding" true
    (encode nested v = encode string (encode inner v))

(* [bindings] writes its count as a placeholder and patches it after one
   walk: the bytes must be those [list (pair key value)] writes over the
   bindings, for the empty map, for maps within one chunk, and for maps
   whose encoding crosses one or several 64 KiB chunk boundaries, where
   the patched count sits in a chunk already filled. *)
module Smap = Ordered_map.Make (Ordered_map.String_key)

let prop_codec_bindings_once =
  let smap = Smap.codec Codec.string Codec.string in
  let list = Codec.(list (pair string string)) in
  QCheck.Test.make ~name:"bindings = list of pairs, across chunks" ~count:30
    QCheck.(pair (int_range 0 2) int)
    (fun (size, seed) ->
      let rng = Random.State.make [| seed |] in
      (* at most 2 bindings, ~100 KiB or ~400 KiB of them *)
      let n, vlen =
        match size with
        | 0 -> (Random.State.int rng 3, 10)
        | 1 -> (100, 1000)
        | _ -> (400, 1000)
      in
      let m =
        List.fold_left
          (fun m i ->
            Smap.add
              (Printf.sprintf "k%d.%d" (Random.State.int rng 1000) i)
              (String.make vlen (Char.chr (97 + Random.State.int rng 26)))
              m)
          Smap.empty (List.init n Fun.id)
      in
      let bytes = Codec.encode smap m in
      bytes = Codec.encode list (Smap.bindings m)
      && Smap.bindings (Codec.decode smap bytes) = Smap.bindings m)

(* {1 Table} *)

let test_table_render () =
  let s =
    Table.render ~header:[ "name"; "x" ] [ [ "foo"; "1" ]; [ "b"; "23" ] ]
  in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "5 lines (incl. trailing empty)" 5 (List.length lines);
  check Alcotest.string "header" "name   x" (List.nth lines 0);
  check Alcotest.string "separator" "----  --" (List.nth lines 1);
  check Alcotest.string "row 1" "foo    1" (List.nth lines 2);
  check Alcotest.string "row 2" "b     23" (List.nth lines 3)

let test_table_alignment () =
  let s =
    Table.render
      ~align:[ Table.Right; Table.Left ]
      ~header:[ "num"; "label" ]
      [ [ "7"; "seven" ] ]
  in
  let lines = String.split_on_char '\n' s in
  check Alcotest.string "right-aligned first column" "  7  seven"
    (List.nth lines 2)

let test_table_pads_short_rows () =
  let s = Table.render ~header:[ "a"; "b"; "c" ] [ [ "only" ] ] in
  check Alcotest.bool "no exception, includes row" true
    (String.length s > 0)

let test_series_layout () =
  (* capture stdout via a temp redirect-free path: render via the same
     pipeline [series] uses — union of x values, '-' for holes *)
  let s =
    Table.render ~header:[ "x"; "a"; "b" ]
      [ [ "1"; "10"; "-" ]; [ "2"; "20"; "200" ] ]
  in
  check Alcotest.bool "holes render as dashes" true
    (String.length s > 0);
  (* the real series printer goes to stdout; here we check its input
     contract instead: fmt_float of the x values used by series *)
  check Alcotest.string "x formatting" "2" (Table.fmt_float 2.0)

let test_fmt_float () =
  check Alcotest.string "integer" "3" (Table.fmt_float 3.0);
  check Alcotest.string "small" "0.1250" (Table.fmt_float 0.125);
  check Alcotest.string "mid" "2.50" (Table.fmt_float 2.5);
  check Alcotest.string "big" "123.4" (Table.fmt_float 123.42)

(* {1 Ordered_map} *)

(* The map against Stdlib [Map] as its model, over one key type. *)
module Map_model (K : sig
  include Map.OrderedType
  include Ordered_map.Key with type t := t

  val name : string
  val gen : t QCheck.Gen.t
  val print : t -> string
  val codec : t Codec.t
end) =
struct
  module O = Ordered_map.Make (K)
  module R = Map.Make (K)

  type op =
    | Add of K.t * int
    | Update of K.t * int option  (** [None] removes *)
    | Find of K.t
    | Mem of K.t

  let print_op = function
    | Add (k, v) -> Printf.sprintf "add %s %d" (K.print k) v
    | Update (k, v) ->
        Printf.sprintf "update %s %s" (K.print k)
          (Option.fold ~none:"remove" ~some:string_of_int v)
    | Find k -> "find " ^ K.print k
    | Mem k -> "mem " ^ K.print k

  let ops =
    let open QCheck.Gen in
    let op =
      frequency
        [
          (3, map2 (fun k v -> Add (k, v)) K.gen small_nat);
          (3, map2 (fun k v -> Update (k, v)) K.gen (opt small_nat));
          (1, map (fun k -> Find k) K.gen);
          (1, map (fun k -> Mem k) K.gen);
        ]
    in
    QCheck.make
      ~print:(fun l -> String.concat "; " (List.map print_op l))
      (list_size (0 -- 300) op)

  (* Every answer agrees with the model's, the invariant holds after each
     step, [equal] to the previous map answers as the model's does, and
     the final map iterates, folds, counts and lists as the model. *)
  let prop_model =
    QCheck.Test.make ~name:(K.name ^ " keys: Stdlib Map model") ~count:300
      ops (fun ops ->
        let o = ref O.empty and r = ref R.empty in
        let step op =
          let o0 = !o and r0 = !r in
          let answers_agree =
            match op with
            | Add (k, v) ->
                o := O.add k v !o;
                r := R.add k v !r;
                true
            | Update (k, v) ->
                (* the new binding depends on the old one *)
                let f old =
                  Option.map (fun v -> v + Option.value old ~default:0) v
                in
                o := O.update k f !o;
                r := R.update k f !r;
                true
            | Find k -> O.find_opt k !o = R.find_opt k !r
            | Mem k -> O.mem k !o = R.mem k !r
          in
          answers_agree && O.invariant !o
          && O.equal Int.equal o0 !o = R.equal Int.equal r0 !r
        in
        List.for_all step ops
        &&
        let o = !o and r = !r in
        let visited = ref [] in
        O.iter (fun k v -> visited := (k, v) :: !visited) o;
        List.rev !visited = R.bindings r
        && O.bindings o = R.bindings r
        && O.fold (fun k v acc -> (k, v) :: acc) o []
           = R.fold (fun k v acc -> (k, v) :: acc) r []
        && O.cardinal o = R.cardinal r)

  let arrays =
    QCheck.(
      make
        ~print:(fun l ->
          String.concat "; "
            (List.map (fun (k, v) -> Printf.sprintf "%s=%d" (K.print k) v) l))
        Gen.(list_size (0 -- 300) (pair K.gen small_nat)))

  let of_list l = List.fold_left (fun m (k, v) -> O.add k v m) O.empty l

  (* Sorted distinct keys take the bottom-up build: it must equal adding
     the bindings in order, and hold the trie's invariant. *)
  let prop_sorted_build =
    QCheck.Test.make ~name:(K.name ^ " keys: bottom-up build = adds")
      ~count:300 arrays (fun l ->
        let l = List.sort_uniq (fun (a, _) (b, _) -> K.compare a b) l in
        let m =
          O.of_arrays
            (Array.of_list (List.map fst l))
            (Array.of_list (List.map snd l))
        in
        O.invariant m && O.equal Int.equal m (of_list l) && O.bindings m = l)

  (* The codec writes the bytes the list codec writes for the bindings,
     and reads any list of bindings — unsorted, with duplicate keys — back
     as adding them in order, the last binding of a key winning. *)
  let prop_codec =
    QCheck.Test.make ~name:(K.name ^ " keys: codec = the list codec")
      ~count:300 arrays (fun l ->
        let list = Codec.(list (pair K.codec int)) in
        let map = O.codec K.codec Codec.int in
        let m = Codec.decode map (Codec.encode list l) in
        let r = List.fold_left (fun r (k, v) -> R.add k v r) R.empty l in
        O.invariant m
        && O.bindings m = R.bindings r
        && Codec.encode map m = Codec.encode list (O.bindings m))

  let tests = List.map qcheck [ prop_model; prop_sorted_build; prop_codec ]
end

(* Keys over every byte, the extremes and the nibble boundaries most,
   and chains of keys that are prefixes of each other: a key's end sorts
   before any byte, [\000] included. *)
module String_model = Map_model (struct
  let compare = String.compare

  include Ordered_map.String_key

  let name = "string"

  let gen =
    let open QCheck.Gen in
    let edge =
      oneofl
        [
          '\000'; '\001'; '\015'; '\016'; 'a'; 'b'; '\127'; '\128'; '\254';
          '\255';
        ]
    in
    frequency
      [
        (3, string_size ~gen:edge (0 -- 3));
        (1, string_size ~gen:char (0 -- 3));
        ( 2,
          oneofl
            [ ""; "a"; "a\000"; "a\000\000"; "a\255"; "ab"; "abc"; "b" ] );
      ]

  let print = Printf.sprintf "%S"
  let codec = Codec.string
end)

(* Small ints collide often; the extremes, -1 and 0 sit where the sign
   flip orders them, and the others span every nibble. *)
module Int_model = Map_model (struct
  let compare = Int.compare

  include Ordered_map.Int_key

  let name = "int"

  let gen =
    let open QCheck.Gen in
    frequency
      [
        (3, int_range (-60) 60);
        (2, oneofl [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]);
        (1, int);
      ]

  let print = string_of_int
  let codec = Codec.int
end)

let () =
  Alcotest.run "util"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_known_vectors;
          Alcotest.test_case "incremental" `Quick test_crc_incremental;
          Alcotest.test_case "bytes range" `Quick test_crc_bytes_range;
          Alcotest.test_case "int64" `Quick test_crc_int64;
          Alcotest.test_case "matches the byte-wise loop" `Quick
            test_crc_matches_bytewise;
          qcheck prop_crc_detects_single_bit_flip;
          qcheck prop_crc_int64_is_bytes;
          qcheck prop_crc_paths_match_bitwise;
          Alcotest.test_case "random ranges match the byte-wise loop" `Quick
            test_crc_random_ranges;
          qcheck prop_crc_length_prefixed;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_splitmix_seeds_differ;
          Alcotest.test_case "split independent" `Quick
            test_splitmix_split_independent;
          Alcotest.test_case "copy" `Quick test_splitmix_copy;
          Alcotest.test_case "bad bound" `Quick test_splitmix_int_bad_bound;
          Alcotest.test_case "shuffle permutes" `Quick
            test_splitmix_shuffle_permutes;
          Alcotest.test_case "pick" `Quick test_splitmix_pick;
          qcheck prop_splitmix_int_in_range;
        ] );
      ( "codec",
        [
          Alcotest.test_case "primitives" `Quick test_codec_primitives;
          Alcotest.test_case "combinators" `Quick test_codec_combinators;
          Alcotest.test_case "errors" `Quick test_codec_errors;
          Alcotest.test_case "tagged" `Quick test_codec_tagged;
          qcheck prop_codec_int_roundtrip;
          qcheck prop_codec_string_roundtrip;
          qcheck prop_codec_list_roundtrip;
          qcheck prop_codec_canonical;
          Alcotest.test_case "string at a chunk's end" `Quick
            test_codec_string_at_chunk_end;
          Alcotest.test_case "encode inside a write" `Quick
            test_codec_nested_encode;
          qcheck prop_codec_bindings_once;
        ] );
      ("map", String_model.tests @ Int_model.tests);
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "series layout" `Quick test_series_layout;
          Alcotest.test_case "fmt_float" `Quick test_fmt_float;
        ] );
    ]
