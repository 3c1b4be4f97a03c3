(* Wire protocol (see protocol.mli). *)

module Codec = Onll_util.Codec

type tier = T_exactly_once | T_strict | T_staleness of int

let tier_name = function
  | T_exactly_once -> "exactly-once"
  | T_strict -> "strict"
  | T_staleness k -> Printf.sprintf "stale:%d" k

let tier_of_string s =
  match s with
  | "exactly-once" | "eo" -> Some T_exactly_once
  | "strict" -> Some T_strict
  | _ -> (
      match String.index_opt s ':' with
      | Some i
        when String.sub s 0 i = "stale"
             || String.sub s 0 i = "staleness" -> (
          match
            int_of_string (String.sub s (i + 1) (String.length s - i - 1))
          with
          | k -> Some (T_staleness k)
          | exception Failure _ -> None)
      | _ -> None)

type req =
  | Hello of { client : int; token : string; tier : tier }
  | Submit of { seq : int; deadline_ns : int; op : string }
  | Fetch of { op : string }
  | Ping
  | Bye

type refusal =
  | R_overloaded
  | R_timeout
  | R_degraded
  | R_draining
  | R_bad_seq of int
  | R_bad_token
  | R_bad_client
  | R_not_attached
  | R_bad_op
  | R_bad_tier

type wire_resolution =
  | W_none
  | W_applied of int
  | W_reinvoked of int * int * int
  | W_refused of int
  | W_unresolved of int

type resp =
  | Attached of { next_seq : int; resolution : wire_resolution }
  | Acked of { seq : int; value : int }
  | Refused of refusal
  | Got of int
  | Pong
  | Gone

let pp_refusal ppf r =
  Format.pp_print_string ppf
    (match r with
    | R_overloaded -> "overloaded"
    | R_timeout -> "timeout"
    | R_degraded -> "degraded"
    | R_draining -> "draining"
    | R_bad_seq n -> Printf.sprintf "bad-seq(expected %d)" n
    | R_bad_token -> "bad-token"
    | R_bad_client -> "bad-client"
    | R_not_attached -> "not-attached"
    | R_bad_op -> "bad-op"
    | R_bad_tier -> "bad-tier")

let tier_codec =
  Codec.tagged
    (function
      | T_exactly_once -> (0, "")
      | T_strict -> (1, "")
      | T_staleness k -> (2, Codec.encode Codec.int k))
    (fun tag payload ->
      match tag with
      | 0 -> T_exactly_once
      | 1 -> T_strict
      | 2 -> T_staleness (Codec.decode Codec.int payload)
      | _ -> raise (Codec.Decode_error "Protocol: unknown tier tag"))

let req_codec =
  Codec.tagged
    (function
      | Hello { client; token; tier } ->
          (0, Codec.encode Codec.(triple int string tier_codec) (client, token, tier))
      | Submit { seq; deadline_ns; op } ->
          (1, Codec.encode Codec.(triple int int string) (seq, deadline_ns, op))
      | Fetch { op } -> (2, Codec.encode Codec.string op)
      | Ping -> (3, "")
      | Bye -> (4, ""))
    (fun tag payload ->
      match tag with
      | 0 ->
          let client, token, tier =
            Codec.decode Codec.(triple int string tier_codec) payload
          in
          Hello { client; token; tier }
      | 1 ->
          let seq, deadline_ns, op =
            Codec.decode Codec.(triple int int string) payload
          in
          Submit { seq; deadline_ns; op }
      | 2 -> Fetch { op = Codec.decode Codec.string payload }
      | 3 -> Ping
      | 4 -> Bye
      | _ -> raise (Codec.Decode_error "Protocol: unknown request tag"))

let refusal_codec =
  Codec.tagged
    (function
      | R_overloaded -> (0, "")
      | R_timeout -> (1, "")
      | R_degraded -> (2, "")
      | R_draining -> (3, "")
      | R_bad_seq n -> (4, Codec.encode Codec.int n)
      | R_bad_token -> (5, "")
      | R_bad_client -> (6, "")
      | R_not_attached -> (7, "")
      | R_bad_op -> (8, "")
      | R_bad_tier -> (9, ""))
    (fun tag payload ->
      match tag with
      | 0 -> R_overloaded
      | 1 -> R_timeout
      | 2 -> R_degraded
      | 3 -> R_draining
      | 4 -> R_bad_seq (Codec.decode Codec.int payload)
      | 5 -> R_bad_token
      | 6 -> R_bad_client
      | 7 -> R_not_attached
      | 8 -> R_bad_op
      | 9 -> R_bad_tier
      | _ -> raise (Codec.Decode_error "Protocol: unknown refusal tag"))

let resolution_codec =
  Codec.tagged
    (function
      | W_none -> (0, "")
      | W_applied s -> (1, Codec.encode Codec.int s)
      | W_reinvoked (old_s, fresh, v) ->
          (2, Codec.encode Codec.(triple int int int) (old_s, fresh, v))
      | W_refused s -> (3, Codec.encode Codec.int s)
      | W_unresolved s -> (4, Codec.encode Codec.int s))
    (fun tag payload ->
      match tag with
      | 0 -> W_none
      | 1 -> W_applied (Codec.decode Codec.int payload)
      | 2 ->
          let old_s, fresh, v =
            Codec.decode Codec.(triple int int int) payload
          in
          W_reinvoked (old_s, fresh, v)
      | 3 -> W_refused (Codec.decode Codec.int payload)
      | 4 -> W_unresolved (Codec.decode Codec.int payload)
      | _ -> raise (Codec.Decode_error "Protocol: unknown resolution tag"))

let resp_codec =
  Codec.tagged
    (function
      | Attached { next_seq; resolution } ->
          ( 0,
            Codec.encode
              Codec.(pair int resolution_codec)
              (next_seq, resolution) )
      | Acked { seq; value } ->
          (1, Codec.encode Codec.(pair int int) (seq, value))
      | Refused r -> (2, Codec.encode refusal_codec r)
      | Got v -> (3, Codec.encode Codec.int v)
      | Pong -> (4, "")
      | Gone -> (5, ""))
    (fun tag payload ->
      match tag with
      | 0 ->
          let next_seq, resolution =
            Codec.decode Codec.(pair int resolution_codec) payload
          in
          Attached { next_seq; resolution }
      | 1 ->
          let seq, value = Codec.decode Codec.(pair int int) payload in
          Acked { seq; value }
      | 2 -> Refused (Codec.decode refusal_codec payload)
      | 3 -> Got (Codec.decode Codec.int payload)
      | 4 -> Pong
      | 5 -> Gone
      | _ -> raise (Codec.Decode_error "Protocol: unknown response tag"))

(* {1 Framing} *)

let max_frame = 1 lsl 16

(* The payload is encoded into a buffer each domain reuses, so a frame
   allocates no string: its length is known only once it is encoded, and
   the prefix goes first. *)
let payload_scratch = Domain.DLS.new_key (fun () -> Buffer.create 256)

let write_frame buf codec v =
  let payload = Domain.DLS.get payload_scratch in
  Buffer.clear payload;
  Codec.write codec payload v;
  Buffer.add_int32_be buf (Int32.of_int (Buffer.length payload));
  Buffer.add_buffer buf payload

module Inbuf = struct
  (* A byte deque specialised for framing: bytes arrive at [len], frames
     leave at [start]; the occupied span compacts to offset 0 whenever it
     empties (the common case — most reads carry whole frames). *)
  type t = { mutable data : Bytes.t; mutable start : int; mutable len : int }

  exception Oversized_frame

  let create () = { data = Bytes.create 4096; start = 0; len = 0 }

  let add t src n =
    if t.len = 0 then t.start <- 0;
    let needed = t.start + t.len + n in
    if needed > Bytes.length t.data then begin
      (* compact, then grow if still short *)
      Bytes.blit t.data t.start t.data 0 t.len;
      t.start <- 0;
      let needed = t.len + n in
      if needed > Bytes.length t.data then begin
        let cap = ref (Bytes.length t.data * 2) in
        while needed > !cap do
          cap := !cap * 2
        done;
        let data = Bytes.create !cap in
        Bytes.blit t.data 0 data 0 t.len;
        t.data <- data
      end
    end;
    Bytes.blit src 0 t.data (t.start + t.len) n;
    t.len <- t.len + n

  let pending t = t.len

  let pop t codec =
    if t.len < 4 then None
    else begin
      let b i = Char.code (Bytes.get t.data (t.start + i)) in
      let flen = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if flen > max_frame then raise Oversized_frame;
      if t.len < 4 + flen then None
      else begin
        (* decoded where it lies: the frame is consumed either way, and a
           payload whose encoding does not end exactly at the frame's end
           is malformed *)
        let pos = t.start + 4 in
        let stop = pos + flen in
        t.start <- stop;
        t.len <- t.len - 4 - flen;
        let v, next =
          Onll_util.Codec.read codec ~stop (Bytes.unsafe_to_string t.data)
            ~pos
        in
        if next <> stop then
          raise
            (Onll_util.Codec.Decode_error
               (Printf.sprintf "frame: %d bytes decoded of %d" (next - pos)
                  flen));
        Some v
      end
    end
end
