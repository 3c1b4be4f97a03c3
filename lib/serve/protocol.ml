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
  let open Codec in
  let exactly_once = const 0 T_exactly_once
  and strict = const 1 T_strict
  and staleness = case 2 int (fun k -> T_staleness k) in
  variant "Protocol tier" [ Case exactly_once; Case strict; Case staleness ]
    (function
      | T_exactly_once -> Is (exactly_once, ())
      | T_strict -> Is (strict, ())
      | T_staleness k -> Is (staleness, k))

let req_codec =
  let open Codec in
  let hello =
    case 0 (triple int string tier_codec) (fun (client, token, tier) ->
        Hello { client; token; tier })
  and submit =
    case 1 (triple int int string) (fun (seq, deadline_ns, op) ->
        Submit { seq; deadline_ns; op })
  and fetch = case 2 string (fun op -> Fetch { op })
  and ping = const 3 Ping
  and bye = const 4 Bye in
  variant "Protocol request"
    [ Case hello; Case submit; Case fetch; Case ping; Case bye ]
    (function
      | Hello { client; token; tier } -> Is (hello, (client, token, tier))
      | Submit { seq; deadline_ns; op } -> Is (submit, (seq, deadline_ns, op))
      | Fetch { op } -> Is (fetch, op)
      | Ping -> Is (ping, ())
      | Bye -> Is (bye, ()))

let refusal_codec =
  let open Codec in
  let overloaded = const 0 R_overloaded
  and timeout = const 1 R_timeout
  and degraded = const 2 R_degraded
  and draining = const 3 R_draining
  and bad_seq = case 4 int (fun n -> R_bad_seq n)
  and bad_token = const 5 R_bad_token
  and bad_client = const 6 R_bad_client
  and not_attached = const 7 R_not_attached
  and bad_op = const 8 R_bad_op
  and bad_tier = const 9 R_bad_tier in
  variant "Protocol refusal"
    [
      Case overloaded;
      Case timeout;
      Case degraded;
      Case draining;
      Case bad_seq;
      Case bad_token;
      Case bad_client;
      Case not_attached;
      Case bad_op;
      Case bad_tier;
    ]
    (function
      | R_overloaded -> Is (overloaded, ())
      | R_timeout -> Is (timeout, ())
      | R_degraded -> Is (degraded, ())
      | R_draining -> Is (draining, ())
      | R_bad_seq n -> Is (bad_seq, n)
      | R_bad_token -> Is (bad_token, ())
      | R_bad_client -> Is (bad_client, ())
      | R_not_attached -> Is (not_attached, ())
      | R_bad_op -> Is (bad_op, ())
      | R_bad_tier -> Is (bad_tier, ()))

let resolution_codec =
  let open Codec in
  let none = const 0 W_none
  and applied = case 1 int (fun s -> W_applied s)
  and reinvoked =
    case 2 (triple int int int) (fun (old_s, fresh, v) ->
        W_reinvoked (old_s, fresh, v))
  and refused = case 3 int (fun s -> W_refused s)
  and unresolved = case 4 int (fun s -> W_unresolved s) in
  variant "Protocol resolution"
    [ Case none; Case applied; Case reinvoked; Case refused; Case unresolved ]
    (function
      | W_none -> Is (none, ())
      | W_applied s -> Is (applied, s)
      | W_reinvoked (old_s, fresh, v) -> Is (reinvoked, (old_s, fresh, v))
      | W_refused s -> Is (refused, s)
      | W_unresolved s -> Is (unresolved, s))

let resp_codec =
  let open Codec in
  let attached =
    case 0 (pair int resolution_codec) (fun (next_seq, resolution) ->
        Attached { next_seq; resolution })
  and acked = case 1 (pair int int) (fun (seq, value) -> Acked { seq; value })
  and refused = case 2 refusal_codec (fun r -> Refused r)
  and got = case 3 int (fun v -> Got v)
  and pong = const 4 Pong
  and gone = const 5 Gone in
  variant "Protocol response"
    [ Case attached; Case acked; Case refused; Case got; Case pong; Case gone ]
    (function
      | Attached { next_seq; resolution } ->
          Is (attached, (next_seq, resolution))
      | Acked { seq; value } -> Is (acked, (seq, value))
      | Refused r -> Is (refused, r)
      | Got v -> Is (got, v)
      | Pong -> Is (pong, ())
      | Gone -> Is (gone, ()))

(* {1 Framing} *)

let max_frame = 1 lsl 16

let write_frame buf codec v =
  let payload = Codec.encode codec v in
  Buffer.add_int32_be buf (Int32.of_int (String.length payload));
  Buffer.add_string buf payload

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
        t.start <- pos + flen;
        t.len <- t.len - 4 - flen;
        Some
          (Codec.decode_range codec (Bytes.unsafe_to_string t.data) ~pos
             ~stop:(pos + flen))
      end
    end
end
