exception Decode_error of string

type 'a t = {
  write : Buffer.t -> 'a -> unit;
  read : string -> pos:int -> stop:int -> 'a * int;
      (* decodes from [pos], reading nothing at or past [stop] *)
  width : int;  (* the fewest input bytes one value takes *)
}

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

let check_space ~stop pos need what =
  if pos < 0 || pos + need > stop then
    fail "%s: truncated input (need %d bytes at offset %d, have %d)" what need
      pos (stop - pos)

let encode c v =
  let b = Buffer.create 64 in
  c.write b v;
  Buffer.contents b

let decode c s =
  let v, next = c.read s ~pos:0 ~stop:(String.length s) in
  if next <> String.length s then
    fail "decode: %d trailing bytes" (String.length s - next);
  v

let decode_tolerant c ~failures =
  List.filter_map (fun s ->
      match decode c s with
      | v -> Some v
      | exception _ ->
          incr failures;
          None)

let write c buf v = c.write buf v
let read c ?stop s ~pos =
  let stop =
    match stop with
    | None -> String.length s
    | Some stop ->
        if stop > String.length s then
          invalid_arg "Codec.read: stop past the input";
        stop
  in
  c.read s ~pos ~stop

let unit =
  { write = (fun _ () -> ()); read = (fun _ ~pos ~stop:_ -> ((), pos)); width = 0 }

let char =
  {
    write = (fun b c -> Buffer.add_char b c);
    read =
      (fun s ~pos ~stop ->
        check_space ~stop pos 1 "char";
        (s.[pos], pos + 1));
    width = 1;
  }

let bool =
  {
    write = (fun b v -> Buffer.add_char b (if v then '\001' else '\000'));
    read =
      (fun s ~pos ~stop ->
        check_space ~stop pos 1 "bool";
        (match s.[pos] with
        | '\000' -> (false, pos + 1)
        | '\001' -> (true, pos + 1)
        | c -> fail "bool: invalid byte %d" (Char.code c)));
    width = 1;
  }

let int64 =
  {
    write = (fun b v -> Buffer.add_int64_le b v);
    read =
      (fun s ~pos ~stop ->
        check_space ~stop pos 8 "int64";
        (String.get_int64_le s pos, pos + 8));
    width = 8;
  }

let int =
  {
    write = (fun b v -> Buffer.add_int64_le b (Int64.of_int v));
    read =
      (fun s ~pos ~stop ->
        check_space ~stop pos 8 "int";
        (Int64.to_int (String.get_int64_le s pos), pos + 8));
    width = 8;
  }

let int32 =
  {
    write = (fun b v -> Buffer.add_int32_le b v);
    read =
      (fun s ~pos ~stop ->
        check_space ~stop pos 4 "int32";
        (String.get_int32_le s pos, pos + 4));
    width = 4;
  }

let float =
  {
    write = (fun b v -> Buffer.add_int64_le b (Int64.bits_of_float v));
    read =
      (fun s ~pos ~stop ->
        check_space ~stop pos 8 "float";
        (Int64.float_of_bits (String.get_int64_le s pos), pos + 8));
    width = 8;
  }

(* The length of the length-prefixed string at [pos], whose body lies
   at [pos + 8, pos + 8 + len). *)
let string_length s ~pos ~stop =
  check_space ~stop pos 8 "string length";
  let len = Int64.to_int (String.get_int64_le s pos) in
  if len < 0 then fail "string: negative length %d" len;
  check_space ~stop (pos + 8) len "string body";
  len

let string =
  {
    write =
      (fun b v ->
        Buffer.add_int64_le b (Int64.of_int (String.length v));
        Buffer.add_string b v);
    read =
      (fun s ~pos ~stop ->
        let len = string_length s ~pos ~stop in
        (String.sub s (pos + 8) len, pos + 8 + len));
    width = 8;
  }

let pair ca cb =
  {
    write =
      (fun b (x, y) ->
        ca.write b x;
        cb.write b y);
    read =
      (fun s ~pos ~stop ->
        let x, pos = ca.read s ~pos ~stop in
        let y, pos = cb.read s ~pos ~stop in
        ((x, y), pos));
    width = ca.width + cb.width;
  }

let triple ca cb cc =
  {
    write =
      (fun b (x, y, z) ->
        ca.write b x;
        cb.write b y;
        cc.write b z);
    read =
      (fun s ~pos ~stop ->
        let x, pos = ca.read s ~pos ~stop in
        let y, pos = cb.read s ~pos ~stop in
        let z, pos = cc.read s ~pos ~stop in
        ((x, y, z), pos));
    width = ca.width + cb.width + cc.width;
  }

(* An element count at [pos], checked against the input left after it:
   [n] elements of at least [width] bytes each must fit, so a forged count
   fails here, before anything is allocated for it. Zero-width elements
   take no input, so any count of them fits. *)
let read_count s ~pos ~stop ~width what =
  check_space ~stop pos 8 (what ^ " length");
  let n = Int64.to_int (String.get_int64_le s pos) in
  if n < 0 then fail "%s: negative length %d" what n;
  let left = stop - pos - 8 in
  if width > 0 && n > left / width then
    fail "%s: %d elements of at least %d bytes in %d bytes" what n width left;
  (n, pos + 8)

let list c =
  {
    write =
      (fun b l ->
        Buffer.add_int64_le b (Int64.of_int (List.length l));
        List.iter (c.write b) l);
    read =
      (fun s ~pos ~stop ->
        let n, pos = read_count s ~pos ~stop ~width:c.width "list" in
        let rec loop acc pos k =
          if k = 0 then (List.rev acc, pos)
          else
            let v, pos = c.read s ~pos ~stop in
            loop (v :: acc) pos (k - 1)
        in
        loop [] pos n);
    width = 8;
  }

let array c =
  {
    write =
      (fun b a ->
        Buffer.add_int64_le b (Int64.of_int (Array.length a));
        Array.iter (c.write b) a);
    read =
      (fun s ~pos ~stop ->
        let n, pos = read_count s ~pos ~stop ~width:c.width "array" in
        if n = 0 then ([||], pos)
        else
          let first, pos = c.read s ~pos ~stop in
          let a = Array.make n first in
          let pos = ref pos in
          for k = 1 to n - 1 do
            let v, next = c.read s ~pos:!pos ~stop in
            a.(k) <- v;
            pos := next
          done;
          (a, !pos));
    width = 8;
  }

let option c =
  {
    write =
      (fun b -> function
        | None -> Buffer.add_char b '\000'
        | Some v ->
            Buffer.add_char b '\001';
            c.write b v);
    read =
      (fun s ~pos ~stop ->
        check_space ~stop pos 1 "option tag";
        match s.[pos] with
        | '\000' -> (None, pos + 1)
        | '\001' ->
            let v, pos = c.read s ~pos:(pos + 1) ~stop in
            (Some v, pos)
        | ch -> fail "option: invalid tag %d" (Char.code ch));
    width = 1;
  }

let map of_a to_a c =
  {
    write = (fun b v -> c.write b (to_a v));
    read =
      (fun s ~pos ~stop ->
        let v, pos = c.read s ~pos ~stop in
        (of_a v, pos));
    width = c.width;
  }

let decode_range c s ~pos ~stop =
  if stop > String.length s then
    invalid_arg "Codec.decode_range: stop past the input";
  let v, next = c.read s ~pos ~stop in
  if next <> stop then fail "decode: %d trailing bytes" (stop - next);
  v

(* [tagged]'s frame: an [int] tag, then the body as a [string]. *)
let tagged_in_place to_tag of_body =
  let payload = pair int string in
  {
    write = (fun b v -> payload.write b (to_tag v));
    read =
      (fun s ~pos ~stop ->
        let tag, pos = int.read s ~pos ~stop in
        let len = string_length s ~pos ~stop in
        let stop = pos + 8 + len in
        (of_body tag s ~pos:(pos + 8) ~stop, stop));
    width = payload.width;
  }

let tagged to_tag of_tag =
  tagged_in_place to_tag (fun tag s ~pos ~stop ->
      of_tag tag (String.sub s pos (stop - pos)))

let bindings ~cardinal ~iter ~of_arrays key value =
  {
    write =
      (fun b m ->
        Buffer.add_int64_le b (Int64.of_int (cardinal m));
        iter
          (fun k v ->
            key.write b k;
            value.write b v)
          m);
    read =
      (fun s ~pos ~stop ->
        let n, pos =
          read_count s ~pos ~stop ~width:(key.width + value.width) "map"
        in
        if n = 0 then (of_arrays [||] [||], pos)
        else
          let k, pos = key.read s ~pos ~stop in
          let v, pos = value.read s ~pos ~stop in
          let keys = Array.make n k and values = Array.make n v in
          let pos = ref pos in
          for i = 1 to n - 1 do
            let k, next = key.read s ~pos:!pos ~stop in
            let v, next = value.read s ~pos:next ~stop in
            keys.(i) <- k;
            values.(i) <- v;
            pos := next
          done;
          (of_arrays keys values, !pos));
    width = 8;
  }
