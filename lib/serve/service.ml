(* The serving core (see service.mli). *)

module Codec = Onll_util.Codec
module Sink = Onll_obs.Sink
module Metrics = Onll_obs.Metrics
module Cs = Onll_specs.Counter

type construction = Plain | Mirrored | Sharded | Batched

let construction_of_string = function
  | "plain" -> Some Plain
  | "mirrored" -> Some Mirrored
  | "sharded" -> Some Sharded
  | "batched" -> Some Batched
  | _ -> None

let construction_name = function
  | Plain -> "plain"
  | Mirrored -> "mirrored"
  | Sharded -> "sharded"
  | Batched -> "batched"

let stack ?(max_staleness = 64) construction =
  {
    Onll_stack.top =
      Onll_stack.Direct
        (match construction with
        | Plain | Mirrored -> Onll_stack.Relaxed (`Plain, max_staleness)
        | Sharded -> Onll_stack.Sharded (`Plain, 4)
        | Batched -> Onll_stack.Bare `Batched);
    replicas = (if construction = Mirrored then 2 else 1);
  }

module Ct = Onll_core.Client_table.Make (Cs)

module Make (M : Onll_machine.Machine_sig.S) = struct
  module B = Onll_stack.Make (M) (Ct)
  module Sess = Onll_session.Make (Cs)

  type t = {
    token : string;
    max_clients : int;
    max_staleness : int;
    sink : Sink.t;
    (* the built stack; its [relaxed] tiers (Plain|Mirrored only) are
       [T_strict] — exactly one fence, which covers every unfenced ack
       below it — and [T_staleness k], fence-free within the budget,
       plus the flush that makes every ack durable *)
    obj : B.obj;
    (* what every exactly-once session runs over: the engine's own
       update, with the service's sticky degraded flag *)
    backend : Sess.backend;
    mutable drain_flag : bool;
    (* sticky: a fence exhausted its write-back budget somewhere in the
       store, not only in the object's own attempts *)
    went_degraded : bool ref;
    (* an update failed mid-way since the last flush *)
    mutable in_doubt : bool;
    (* the object's one admission, shared by every tier *)
    admission : Onll_core.Admission.t;
    m_ok : Metrics.counter;
    m_shed : Metrics.counter;
    m_timeout : Metrics.counter;
    m_degraded : Metrics.counter;
    m_drained : Metrics.counter;
    m_bad_seq : Metrics.counter;
    m_bad_auth : Metrics.counter;
    m_bad_tier : Metrics.counter;
    m_tier_strict : Metrics.counter;
    m_tier_relaxed : Metrics.counter;
    m_unresolved : Metrics.counter;
    m_reads : Metrics.counter;
  }

  let make ?(sink = Sink.null) ?(token = "onll") ?(max_clients = 1024)
      ?(log_capacity = Onll_core.Onll.Config.default.log_capacity)
      ?(max_staleness = 64) construction =
    (* A checkpoint of F bytes is appended only while the log has room
       for it plus 2F beside the live F (Plog's headroom rule). Three
       full-table checkpoints (each with its record header, floors and
       counter) ride on top of [log_capacity], which stays the room for
       the updates between compactions however full the table is. *)
    let log_capacity =
      log_capacity + (3 * (Ct.checkpoint_bytes ~clients:max_clients + 128))
    in
    let obj =
      B.build
        (stack ~max_staleness construction)
        { Onll_core.Onll.Config.default with log_capacity; sink }
    in
    ignore (obj.B.recover_report () : Onll_core.Onll.Recovery_report.t);
    let went_degraded = ref false in
    let reg = Sink.registry sink in
    {
      token;
      max_clients;
      max_staleness;
      sink;
      obj;
      backend =
        {
          (B.backend obj) with
          b_degraded = (fun () -> !went_degraded || obj.B.degraded ());
        };
      drain_flag = false;
      went_degraded;
      in_doubt = false;
      admission = Onll_core.Admission.create ~watermark:0.85;
      m_ok = Metrics.counter reg "serve.submit.ok";
      m_shed = Metrics.counter reg "serve.refused.overloaded";
      m_timeout = Metrics.counter reg "serve.refused.timeout";
      m_degraded = Metrics.counter reg "serve.refused.degraded";
      m_drained = Metrics.counter reg "serve.refused.draining";
      m_bad_seq = Metrics.counter reg "serve.refused.bad_seq";
      m_bad_auth = Metrics.counter reg "serve.refused.auth";
      m_bad_tier = Metrics.counter reg "serve.refused.bad_tier";
      m_tier_strict = Metrics.counter reg "serve.submit.strict";
      m_tier_relaxed = Metrics.counter reg "serve.submit.relaxed";
      m_unresolved = Metrics.counter reg "serve.resolved.unresolved";
      m_reads = Metrics.counter reg "serve.reads";
    }

  let counter_value t =
    match t.obj.B.read (Ct.Inner Cs.Get) with
    | Ct.Value v -> v
    | _ -> assert false

  let degraded t = t.backend.b_degraded ()

  (* An update that failed mid-way stays ordered, invisible, until a
     fence covers it. Over the relaxed front, the flush finishes it
     before a Hello answers from the table, so the answer is final.
     Elsewhere a failed update stays invisible until a later update's
     fence persists it. *)
  let settle t =
    if t.in_doubt then begin
      Option.iter (fun r -> r.B.flush ()) t.obj.B.relaxed;
      t.in_doubt <- false
    end

  type link = Unattached | Exactly_once of Sess.t | Tiered of Protocol.tier
  type conn = link ref

  let conn () = ref Unattached

  let tier_ok t = function
    | Protocol.T_exactly_once -> true
    | Protocol.T_strict -> t.obj.B.relaxed <> None
    | Protocol.T_staleness k ->
        t.obj.B.relaxed <> None && k >= 1 && k <= t.max_staleness

  let hello t conn ~client ~token ~tier =
    if t.drain_flag then begin
      Metrics.incr t.m_drained;
      Protocol.Refused Protocol.R_draining
    end
    else if not (String.equal token t.token) then begin
      Metrics.incr t.m_bad_auth;
      Protocol.Refused Protocol.R_bad_token
    end
    else if client < 0 || client >= t.max_clients then begin
      Metrics.incr t.m_bad_auth;
      Protocol.Refused Protocol.R_bad_client
    end
    else if not (tier_ok t tier) then begin
      (* definite, pre-durable: relaxed tiers need the relaxed front
         (plain or mirrored construction) and a staleness bound within
         the server's risk cap *)
      Metrics.incr t.m_bad_tier;
      Protocol.Refused Protocol.R_bad_tier
    end
    else begin
      let settled =
        match settle t with
        | () -> true
        | exception Onll_nvm.File_memory.Degraded _ ->
            t.went_degraded := true;
            false
        | exception Onll_nvm.Memory.Transient_fault _ -> false
      in
      let s =
        Sess.attach ~sink:t.sink ~admission:t.admission ~client t.backend
      in
      conn :=
        (match tier with
        | Protocol.T_exactly_once -> Exactly_once s
        | _ -> Tiered tier);
      let next_seq = Sess.next_seq s in
      let resolution =
        if next_seq = 0 then Protocol.W_none
        else if settled then Protocol.W_applied (next_seq - 1)
        else begin
          Metrics.incr t.m_unresolved;
          Protocol.W_unresolved (next_seq - 1)
        end
      in
      Protocol.Attached { next_seq; resolution }
    end

  (* An update that failed mid-way is indeterminate: the client's next
     Hello reads its fate from the table. *)
  let in_doubt_timeout t =
    t.in_doubt <- true;
    Metrics.incr t.m_timeout;
    Protocol.Refused Protocol.R_timeout

  let in_doubt_degraded t =
    t.went_degraded := true;
    t.in_doubt <- true;
    Metrics.incr t.m_degraded;
    Protocol.Refused Protocol.R_degraded

  (* Relaxed tiers (E20): no dedup, the engine's own tiers, priced
     exactly one fence (strict) or 1/k (staleness). [seq] is echoed, not
     checked: retrying an indeterminate submit may double-apply; that is
     the tier's stated trade. *)
  let submit_tiered t ~seq tier op =
    let r = Option.get t.obj.B.relaxed in
    let update () =
      match tier with
      | Protocol.T_strict ->
          Metrics.incr t.m_tier_strict;
          r.B.update_strict (Ct.Untracked op)
      | Protocol.T_staleness k ->
          Metrics.incr t.m_tier_relaxed;
          snd (r.B.update_stale ~budget:k (Ct.Untracked op))
      | Protocol.T_exactly_once -> assert false
    in
    match
      if
        Onll_core.Admission.admit t.admission ~fill:t.obj.B.log_fill
          ~compact:t.obj.B.compact
      then Some (update ())
      else None
    with
    | Some v ->
        Metrics.incr t.m_ok;
        let value = match v with Ct.Value v -> v | _ -> counter_value t in
        Protocol.Acked { seq; value }
    | None ->
        Metrics.incr t.m_shed;
        Protocol.Refused Protocol.R_overloaded
    | exception Onll_nvm.File_memory.Degraded _ -> in_doubt_degraded t
    | exception Onll_nvm.Memory.Transient_fault _ -> in_doubt_timeout t

  (* The session answers an exactly-once submit. A duplicate (an
     in-doubt operation that was applied before its resubmission)
     answers the counter as it stands. The session lets a degraded
     store's exception through. *)
  let submit_exactly_once t s ~seq op =
    match Sess.submit ~seq s op with
    | Ok (Sess.Applied value) ->
        Metrics.incr t.m_ok;
        Protocol.Acked { seq; value }
    | Ok Sess.Duplicate ->
        Metrics.incr t.m_ok;
        Protocol.Acked { seq; value = counter_value t }
    | Error Onll_session.Overloaded ->
        Metrics.incr t.m_shed;
        Protocol.Refused Protocol.R_overloaded
    | Error Onll_session.Degraded ->
        Metrics.incr t.m_degraded;
        Protocol.Refused Protocol.R_degraded
    | Error Onll_session.In_doubt -> in_doubt_timeout t
    | exception Onll_nvm.File_memory.Degraded _ -> in_doubt_degraded t

  let decoded op f =
    match Codec.decode Cs.update_codec op with
    | exception Codec.Decode_error _ -> Protocol.Refused Protocol.R_bad_op
    | op -> f op

  (* Only a seq past the session's cursor is refused: one at or below it
     is a resubmission, which the session answers. *)
  let submit t conn ~seq ~op =
    match !conn with
    | Unattached -> Protocol.Refused Protocol.R_not_attached
    | _ when t.drain_flag ->
        Metrics.incr t.m_drained;
        Protocol.Refused Protocol.R_draining
    | Exactly_once s when seq > Sess.next_seq s ->
        Metrics.incr t.m_bad_seq;
        Protocol.Refused (Protocol.R_bad_seq (Sess.next_seq s))
    | Exactly_once s -> decoded op (submit_exactly_once t s ~seq)
    | Tiered tier -> decoded op (submit_tiered t ~seq tier)

  let fetch t conn =
    match !conn with
    | Unattached -> Protocol.Refused Protocol.R_not_attached
    | Exactly_once _ | Tiered _ ->
        Metrics.incr t.m_reads;
        Protocol.Got (counter_value t)

  let handle t conn (req : Protocol.req) : Protocol.resp =
    match req with
    | Protocol.Hello { client; token; tier } ->
        hello t conn ~client ~token ~tier
    | Protocol.Submit { seq; deadline_ns = _; op } -> submit t conn ~seq ~op
    | Protocol.Fetch _ -> fetch t conn
    | Protocol.Ping -> Protocol.Pong
    | Protocol.Bye ->
        conn := Unattached;
        Protocol.Gone

  let drain t = t.drain_flag <- true
  let draining t = t.drain_flag
  (* A degraded store cannot fence — and needs no final one: nothing was
     acked past the failed fence that made it sticky. A healthy one
     first flushes the unfenced acks: an orderly shutdown loses no
     acked operation, whatever its tier. *)
  let quiesce t =
    try
      Option.iter (fun r -> r.B.flush ()) t.obj.B.relaxed;
      M.fence ()
    with Onll_nvm.File_memory.Degraded _ -> ()
end
