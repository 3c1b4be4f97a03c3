(** The `onll serve` wire protocol: length-prefixed binary frames.

    Every message is a 4-byte big-endian payload length followed by a
    {!Onll_util.Codec}-encoded payload. The protocol carries exactly what
    the durable-session contract needs at a network boundary: the client
    id and a token ({!req.Hello}), the client's sequence number and a
    deadline ({!req.Submit}), and — the crash half — a reattach response
    ({!resp.Attached}) that tells the returning client its durable cursor
    {e and} the fate of its one in-doubt operation, so a client that
    disconnected mid-operation (or outlived a server crash) can resolve it
    without ever re-submitting blindly.

    The client-side resolution rule, given [Attached { next_seq; resolution }]
    and an outstanding operation at sequence [s]. A non-[W_none]
    resolution is always about the client's {e last applied} operation,
    sequence [next_seq - 1], so it only binds the client's op when
    [s = next_seq - 1]:
    {ul
    {- [s = next_seq - 1] and [resolution] is not [W_none] — trust it
       (applied / still unresolved);}
    {- otherwise, [s < next_seq] — the operation was applied, and only
       the protocol acknowledgement got lost. Confirm it, do not
       resubmit;}
    {- otherwise [s >= next_seq] — the operation has not taken effect;
       resubmit it under [next_seq]. If the earlier attempt takes effect
       after the [Hello] (a later update persists it), the resubmission
       is acknowledged without a second apply.}}

    The server ({!Service}) sends [W_none] (the client never applied an
    operation), [W_applied] (its last applied one) and, while a failed
    update cannot yet be made durable, [W_unresolved]. It never sends
    [W_reinvoked] or [W_refused]: it re-invokes nothing, since the
    client resubmits under [next_seq]. Both stay in the wire type only
    because the repository benchmark's client ([perfbench/duegen.ml])
    matches on them, and the benchmark's files change only with the
    benchmark: dropping them is left to a change of the benchmark. *)

(** The durability tier a session asks for at [Hello] (E20). The server
    refuses combinations it cannot honour with {!refusal.R_bad_tier}. *)
type tier =
  | T_exactly_once
      (** the default: exactly-once durable acks, deduplicated by the
          client table in the object's state (the Theorem 5.1 fence, and
          no other) *)
  | T_strict
      (** classic durable linearizability, no dedup: exactly one fence
          per update ({!Onll_relaxed}'s piggybacking strict path — it
          also drains any staleness tail ahead of it) *)
  | T_staleness of int
      (** bounded staleness k: fence-free acks into the shared risk
          budget; a crash may cost at most the k-deep acked suffix,
          named in the recovery ledger — never an interior op *)

val tier_name : tier -> string
val tier_of_string : string -> tier option
(** ["exactly-once"]/["eo"], ["strict"], ["stale:<k>"]/["staleness:<k>"]. *)

(** Client → server. *)
type req =
  | Hello of { client : int; token : string; tier : tier }
      (** Authenticate and attach (or re-attach) the client's durable
          session at [tier]. Answered by {!resp.Attached} or a refusal. *)
  | Submit of { seq : int; deadline_ns : int; op : string }
      (** One exactly-once update under the client's sequence number
          [seq]. A [seq] past the session's next one is refused with
          {!refusal.R_bad_seq} carrying the expected one; one at or below
          the client's last applied seq is a resubmission, acknowledged
          (once durable) without being applied again. [deadline_ns]
          is an absolute [CLOCK_MONOTONIC] deadline stamped by the client
          ([0] = none); the server sheds the request without durable work
          once it has passed. [op] is the {!Onll_specs.Counter} update,
          encoded. *)
  | Fetch of { op : string }  (** fence-free read; never refused *)
  | Ping  (** liveness/idle keep-alive *)
  | Bye  (** orderly goodbye; the server replies {!resp.Gone} and closes *)

(** Why a request was refused. Every refusal is {e definite} about
    durable state except [R_timeout], which is the session contract's
    indeterminate case — the client resolves it by re-attaching. *)
type refusal =
  | R_overloaded
      (** watermark admission shed it: the object's log was still at the
          watermark after a compaction. The op did no durable work. *)
  | R_timeout
      (** deadline passed (before work: definite) or the durable path
          timed out (indeterminate: reattach to resolve) *)
  | R_degraded  (** sticky degraded policy refuses writes *)
  | R_draining  (** server is draining (SIGTERM); reconnect elsewhere *)
  | R_bad_seq of int  (** seq past the next one; payload = the next seq *)
  | R_bad_token
  | R_bad_client  (** client id out of the served range *)
  | R_not_attached  (** Submit/Fetch before Hello *)
  | R_bad_op  (** undecodable operation payload *)
  | R_bad_tier
      (** tier the server cannot honour: relaxed tiers on a sharded or
          batched construction, or a staleness bound out of range *)

(** The resolution carried on {!resp.Attached} (see the module doc for
    which ones the server sends). *)
type wire_resolution =
  | W_none
  | W_applied of int  (** the client's last applied seq *)
  | W_reinvoked of int * int * int
      (** (old seq, fresh seq, value): not sent by the server *)
  | W_refused of int
      (** degradation policy withheld re-invocation: not sent by the
          server *)
  | W_unresolved of int
      (** the last applied seq as read, not yet known durable (faults
          raging); retry Hello *)

(** Server → client. *)
type resp =
  | Attached of { next_seq : int; resolution : wire_resolution }
  | Acked of { seq : int; value : int }  (** durably applied; the ack *)
  | Refused of refusal
  | Got of int  (** read result *)
  | Pong
  | Gone

val pp_refusal : Format.formatter -> refusal -> unit

val req_codec : req Onll_util.Codec.t
val resp_codec : resp Onll_util.Codec.t

(** {1 Framing} *)

val max_frame : int
(** Upper bound on a payload (64 KiB) — a length prefix beyond it is a
    protocol error, not an allocation request. *)

val write_frame : Buffer.t -> 'a Onll_util.Codec.t -> 'a -> unit
(** Append one frame (length prefix + payload) to an output buffer. *)

(** Per-connection incremental input buffer: feed raw bytes as they
    arrive, pop complete frames as they close. *)
module Inbuf : sig
  type t

  exception Oversized_frame

  val create : unit -> t
  val add : t -> bytes -> int -> unit  (** append the first [n] bytes *)

  val pop : t -> 'a Onll_util.Codec.t -> 'a option
  (** The next complete frame, decoded, or [None] if more bytes are
      needed. @raise Oversized_frame on a length prefix over {!max_frame}
      (the connection should be dropped).
      @raise Onll_util.Codec.Decode_error on a malformed payload. *)

  val pending : t -> int  (** buffered bytes not yet popped *)
end
