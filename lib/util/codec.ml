exception Decode_error of string

(* The input one decode reads: [pos] advances as values are read, and
   nothing at or past [stop] is read. A variant narrows [stop] to its
   body while it reads the body. *)
type cursor = { s : string; mutable pos : int; mutable stop : int }

(* The output of one encode: filled chunks, then the chunk being
   written. A chunk is never grown, so a long encoding is copied once,
   into the result. The chunks, all of [max_chunk] bytes, are the
   calling domain's, kept from one encode to the next (see [encode]);
   the slack past the last byte is small next to a long encoding. *)
type writer = {
  mutable buf : Bytes.t;  (* the chunk being written *)
  mutable pos : int;  (* its first free byte *)
  mutable full : (Bytes.t * int) list;
      (* earlier chunks with the bytes used in each, newest first *)
  mutable before : int;  (* the bytes used in [full] *)
  mutable spare : Bytes.t list;  (* kept chunks not written yet *)
  mutable fresh : Bytes.t list;  (* chunks this encode allocated *)
}

let max_chunk = 1 lsl 16

(* Start a chunk: a kept one, else a fresh one. (What [ensure] asks for
   is at most 16 bytes.) *)
let next_chunk w =
  w.full <- (w.buf, w.pos) :: w.full;
  w.before <- w.before + w.pos;
  (match w.spare with
  | c :: rest ->
      w.buf <- c;
      w.spare <- rest
  | [] ->
      let c = Bytes.create max_chunk in
      w.buf <- c;
      w.fresh <- c :: w.fresh);
  w.pos <- 0

let ensure w need = if Bytes.length w.buf - w.pos < need then next_chunk w
let written w = w.before + w.pos

type 'a t = {
  write : writer -> 'a -> unit;
  read : cursor -> 'a;
  width : int;  (* the fewest input bytes one value takes *)
}

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

(* The offset of the next [need] bytes, which the cursor then passes. *)
let take (c : cursor) need what =
  let pos = c.pos in
  if need > c.stop - pos then
    fail "%s: truncated input (need %d bytes at offset %d, have %d)" what need
      pos (c.stop - pos);
  c.pos <- pos + need;
  pos

(* Every int goes out as 8 bytes little-endian and comes back only from
   the int64s an int can be: one outside OCaml's 63-bit range would lose
   its top bit, and two inputs would decode to the same value. *)
let put_int w v =
  ensure w 8;
  Bytes.set_int64_le w.buf w.pos (Int64.of_int v);
  w.pos <- w.pos + 8

let get_int c what =
  let v = String.get_int64_le c.s (take c 8 what) in
  let n = Int64.to_int v in
  if Int64.of_int n <> v then fail "%s: %Ld is not an int" what v;
  n

(* A length or element count: a non-negative int. *)
let get_length c what =
  let n = get_int c what in
  if n < 0 then fail "%s: negative length %d" what n;
  n

(* An element count, checked against the input left after it: [n]
   elements of at least [width] bytes each must fit, so a forged count
   fails here, before anything is allocated for it. Zero-width elements
   take no input, so any count of them fits. *)
let get_count (c : cursor) ~width what =
  let n = get_length c what in
  let left = c.stop - c.pos in
  if width > 0 && n > left / width then
    fail "%s: %d elements of at least %d bytes in %d bytes" what n width left;
  n

(* A domain's chunks: [first] and [spare] ones, all of [max_chunk]
   bytes, which its encodes write into instead of allocating, and which
   grow to its longest encoding. [busy] while an encode runs: a codec
   that encodes inside its own write takes the [inner] pool, one per
   depth of nesting. *)
type pool = {
  first : Bytes.t;
  mutable spare : Bytes.t list;
  mutable busy : bool;
  mutable inner : pool option;
}

let new_pool () =
  { first = Bytes.create max_chunk; spare = []; busy = false; inner = None }

let pools = Domain.DLS.new_key new_pool

let rec free_pool p =
  if not p.busy then p
  else
    match p.inner with
    | Some q -> free_pool q
    | None ->
        let q = new_pool () in
        p.inner <- Some q;
        q

let encode c v =
  let p = free_pool (Domain.DLS.get pools) in
  let w =
    { buf = p.first; pos = 0; full = []; before = 0; spare = p.spare; fresh = [] }
  in
  p.busy <- true;
  (match c.write w v with
  | () -> ()
  | exception e ->
      p.busy <- false;
      raise e);
  let out =
    match w.full with
    | [] -> Bytes.sub_string w.buf 0 w.pos
    | full ->
        let out = Bytes.create (written w) in
        Bytes.blit w.buf 0 out w.before w.pos;
        ignore
          (List.fold_left
             (fun stop (b, used) ->
               Bytes.blit b 0 out (stop - used) used;
               stop - used)
             w.before full
            : int);
        Bytes.unsafe_to_string out
  in
  if w.fresh <> [] then p.spare <- List.rev_append w.fresh p.spare;
  p.busy <- false;
  out

let decode_range c s ~pos ~stop =
  if pos < 0 || stop > String.length s then
    invalid_arg "Codec.decode_range: range outside the input";
  let cur = { s; pos; stop } in
  let v = c.read cur in
  if cur.pos <> stop then fail "decode: %d trailing bytes" (stop - cur.pos);
  v

let decode c s = decode_range c s ~pos:0 ~stop:(String.length s)

let decode_tolerant c ~failures =
  List.filter_map (fun s ->
      match decode c s with
      | v -> Some v
      | exception _ ->
          incr failures;
          None)

(* A codec of [n] bytes per value. *)
let fixed n what put get =
  {
    write =
      (fun w v ->
        ensure w n;
        put w.buf w.pos v;
        w.pos <- w.pos + n);
    read = (fun (c : cursor) -> get c.s (take c n what));
    width = n;
  }

let unit = { write = (fun _ () -> ()); read = ignore; width = 0 }
let skip =
  { write = (fun _ () -> ()); read = (fun c -> c.pos <- c.stop); width = 0 }
let char = fixed 1 "char" Bytes.set String.get

let byte_bool what s p =
  match s.[p] with
  | '\000' -> false
  | '\001' -> true
  | ch -> fail "%s: invalid byte %d" what (Char.code ch)

let bool =
  fixed 1 "bool"
    (fun b p v -> Bytes.set b p (if v then '\001' else '\000'))
    (byte_bool "bool")

let int64 = fixed 8 "int64" Bytes.set_int64_le String.get_int64_le
let int32 = fixed 4 "int32" Bytes.set_int32_le String.get_int32_le

let float =
  fixed 8 "float"
    (fun b p v -> Bytes.set_int64_le b p (Int64.bits_of_float v))
    (fun s p -> Int64.float_of_bits (String.get_int64_le s p))

let int = { write = put_int; read = (fun c -> get_int c "int"); width = 8 }

let rec put_string w v off =
  let k = min (String.length v - off) (Bytes.length w.buf - w.pos) in
  Bytes.blit_string v off w.buf w.pos k;
  w.pos <- w.pos + k;
  if off + k < String.length v then begin
    next_chunk w;
    put_string w v (off + k)
  end

(* A string whose length and body fit in the chunk is written in one
   step; any other is copied in pieces, into the chunks as they come. *)
let string =
  {
    write =
      (fun w v ->
        let n = String.length v and pos = w.pos in
        if Bytes.length w.buf - pos >= 8 + n then begin
          Bytes.set_int64_le w.buf pos (Int64.of_int n);
          Bytes.unsafe_blit_string v 0 w.buf (pos + 8) n;
          w.pos <- pos + 8 + n
        end
        else begin
          put_int w n;
          put_string w v 0
        end);
    read =
      (fun c ->
        let n = get_length c "string length" in
        String.sub c.s (take c n "string body") n);
    width = 8;
  }

let pair ca cb =
  {
    write =
      (fun w (x, y) ->
        ca.write w x;
        cb.write w y);
    read =
      (fun c ->
        let x = ca.read c in
        let y = cb.read c in
        (x, y));
    width = ca.width + cb.width;
  }

let triple ca cb cc =
  {
    write =
      (fun w (x, y, z) ->
        ca.write w x;
        cb.write w y;
        cc.write w z);
    read =
      (fun c ->
        let x = ca.read c in
        let y = cb.read c in
        let z = cc.read c in
        (x, y, z));
    width = ca.width + cb.width + cc.width;
  }

let rec write_all write w = function
  | [] -> ()
  | x :: l ->
      write w x;
      write_all write w l

(* [List.init] and [Array.init] call [f] on ascending indices, so the
   elements are read in input order. *)
let list c =
  {
    write =
      (fun w l ->
        put_int w (List.length l);
        write_all c.write w l);
    read =
      (fun cur ->
        let n = get_count cur ~width:c.width "list" in
        List.init n (fun _ -> c.read cur));
    width = 8;
  }

let array c =
  {
    write =
      (fun w a ->
        put_int w (Array.length a);
        for i = 0 to Array.length a - 1 do
          c.write w a.(i)
        done);
    read =
      (fun cur ->
        let n = get_count cur ~width:c.width "array" in
        Array.init n (fun _ -> c.read cur));
    width = 8;
  }

let option c =
  {
    write =
      (fun w -> function
        | None -> bool.write w false
        | Some v ->
            bool.write w true;
            c.write w v);
    read =
      (fun cur ->
        if byte_bool "option tag" cur.s (take cur 1 "option tag") then
          Some (c.read cur)
        else None);
    width = 1;
  }

let map of_a to_a c =
  {
    write = (fun w v -> c.write w (to_a v));
    read = (fun cur -> of_a (c.read cur));
    width = c.width;
  }

type ('a, 'b) case = { tag : int; body : 'b t; inj : 'b -> 'a }
type 'a any_case = Case : ('a, 'b) case -> 'a any_case
type 'a choice = Is : ('a, 'b) case * 'b -> 'a choice

let case tag body inj =
  if tag < 0 then invalid_arg "Codec.case: negative tag";
  { tag; body; inj }

let const tag v = case tag unit (fun () -> v)

(* The frame: the tag, the body's length, the body. The header is kept
   in one chunk, and the length is written into it once the body's end
   is known. *)
let variant name cases choose =
  let cases =
    let top = List.fold_left (fun m (Case c) -> max m c.tag) (-1) cases in
    let a = Array.make (top + 1) None in
    List.iter
      (fun (Case c as k) ->
        if Option.is_some a.(c.tag) then
          invalid_arg "Codec.variant: tag reused";
        a.(c.tag) <- Some k)
      cases;
    a
  in
  let body_what = name ^ " body" in
  {
    write =
      (fun w v ->
        match choose v with
        | Is (c, x) ->
            ensure w 16;
            let head = w.buf and at = w.pos in
            Bytes.set_int64_le head at (Int64.of_int c.tag);
            w.pos <- at + 16;
            let start = written w in
            c.body.write w x;
            Bytes.set_int64_le head (at + 8)
              (Int64.of_int (written w - start)));
    read =
      (fun cur ->
        let tag = get_int cur name in
        let n = get_length cur name in
        let start = take cur n body_what and outer = cur.stop in
        let case =
          if 0 <= tag && tag < Array.length cases then cases.(tag) else None
        in
        match case with
        | None -> fail "%s: unknown tag %d" name tag
        | Some (Case c) ->
            cur.pos <- start;
            cur.stop <- start + n;
            let v = c.inj (c.body.read cur) in
            if cur.pos <> cur.stop then
              fail "%s: %d trailing bytes in the body" name
                (cur.stop - cur.pos);
            cur.stop <- outer;
            v);
    width = 16;
  }

(* The count is written as a placeholder and patched once the walk has
   counted the bindings, as a variant's body length is: the placeholder
   stays in its chunk, retired or not. *)
let bindings ~iter ~of_reader key value =
  {
    write =
      (fun w m ->
        ensure w 8;
        let head = w.buf and at = w.pos in
        w.pos <- at + 8;
        let n = ref 0 in
        iter
          (fun k v ->
            incr n;
            key.write w k;
            value.write w v)
          m;
        Bytes.set_int64_le head at (Int64.of_int !n));
    read =
      (fun c ->
        let n = get_count c ~width:(key.width + value.width) "map" in
        of_reader n
          ~key:(fun () -> key.read c)
          ~value:(fun () -> value.read c));
    width = 8;
  }
