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
    (* local views (§8, E4): a server applies every client's updates
       from one process, so without them each update replays the whole
       history — O(n²) CPU over a pass. Volatile read acceleration only:
       fence accounting and recovery are unchanged. *)
    views = true;
  }

module Ct = Onll_core.Client_table.Make (Cs)

module Make (M : Onll_machine.Machine_sig.S) = struct
  module B = Onll_stack.Make (M) (Ct)

  type t = {
    token : string;
    max_clients : int;
    max_staleness : int;
    (* the built stack; its [relaxed] tiers (Plain|Mirrored only) are
       [T_strict] — exactly one piggybacking fence — and
       [T_staleness k], fence-free within the budget, plus the flush
       that drains the shared tail *)
    obj : B.obj;
    (* the exactly-once path: the wrapper's strict update, whose one
       fence also drains the staleness tail ahead of it, or the
       object's own update *)
    update_strict : Ct.update_op -> Ct.value;
    mutable drain_flag : bool;
    (* sticky: a fence exhausted its write-back budget somewhere in the
       store, not only in the object's own attempts *)
    mutable went_degraded : bool;
    (* an update failed mid-way since the staleness tail last drained *)
    mutable in_doubt : bool;
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
    let reg = Sink.registry sink in
    {
      token;
      max_clients;
      max_staleness;
      obj;
      update_strict =
        (match obj.B.relaxed with
        | Some r -> r.B.update_strict
        | None -> obj.B.update);
      drain_flag = false;
      went_degraded = false;
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

  let last_seq t client =
    match t.obj.B.read (Ct.Last client) with
    | Ct.Last_seq s -> s
    | _ -> assert false

  let next_seq t client =
    match last_seq t client with Some s -> s + 1 | None -> 0

  let degraded t = t.went_degraded || t.obj.B.degraded ()

  (* Admission compacts the object before it sheds. *)
  let admit t =
    Onll_core.Admission.admit t.admission ~fill:t.obj.B.log_fill
      ~compact:t.obj.B.compact

  (* An update that failed mid-way over the relaxed wrapper stays staged
     in the staleness tail, where a later acknowledged update can make
     it visible before it is durable: drain the tail before answering
     from the table. Elsewhere a failed update stays invisible until a
     later update's fence persists it. *)
  let settle t =
    if t.in_doubt then begin
      Option.iter (fun r -> r.B.flush ()) t.obj.B.relaxed;
      t.in_doubt <- false
    end

  type conn = { mutable client : int option; mutable tier : Protocol.tier }

  let conn () = { client = None; tier = Protocol.T_exactly_once }

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
      (* definite, pre-durable: relaxed tiers need the wrapper (plain or
         mirrored construction) and a staleness bound within the
         server's risk cap *)
      Metrics.incr t.m_bad_tier;
      Protocol.Refused Protocol.R_bad_tier
    end
    else begin
      conn.client <- Some client;
      conn.tier <- tier;
      let settled =
        match settle t with
        | () -> true
        | exception Onll_nvm.File_memory.Degraded _ ->
            t.went_degraded <- true;
            false
        | exception Onll_nvm.Memory.Transient_fault _ -> false
      in
      let last = last_seq t client in
      let resolution =
        match last with
        | None -> Protocol.W_none
        | Some s when settled -> Protocol.W_applied s
        | Some s ->
            Metrics.incr t.m_unresolved;
            Protocol.W_unresolved s
      in
      let next_seq = match last with Some s -> s + 1 | None -> 0 in
      Protocol.Attached { next_seq; acked = next_seq; resolution }
    end

  (* Run one durable update. A failure mid-way is indeterminate: the
     client's next Hello reads its fate from the table. A duplicate (an
     in-doubt operation that was applied before its resubmission)
     answers the counter as it stands. *)
  let durable t ~seq update =
    match update () with
    | None ->
        Metrics.incr t.m_shed;
        Protocol.Refused Protocol.R_overloaded
    | Some v ->
        Metrics.incr t.m_ok;
        let value =
          match v with Ct.Value v -> v | _ -> counter_value t
        in
        Protocol.Acked { seq; value }
    | exception Onll_nvm.File_memory.Degraded _ ->
        t.went_degraded <- true;
        t.in_doubt <- true;
        Metrics.incr t.m_degraded;
        Protocol.Refused Protocol.R_degraded
    | exception Onll_nvm.Memory.Transient_fault _ ->
        t.in_doubt <- true;
        Metrics.incr t.m_timeout;
        Protocol.Refused Protocol.R_timeout

  (* Relaxed tiers (E20): no dedup, the wrapper's ack path, priced
     exactly one fence (strict) or 1/k (staleness). [seq] is echoed, not
     checked: retrying an indeterminate submit may double-apply; that is
     the tier's stated trade. *)
  let submit_tiered t ~seq ~op tier =
    match Codec.decode Cs.update_codec op with
    | exception Codec.Decode_error _ -> Protocol.Refused Protocol.R_bad_op
    | op ->
        let r = Option.get t.obj.B.relaxed in
        durable t ~seq (fun () ->
            if not (admit t) then None
            else
              match tier with
              | Protocol.T_strict ->
                  Metrics.incr t.m_tier_strict;
                  Some (r.B.update_strict (Ct.Untracked op))
              | Protocol.T_staleness k ->
                  Metrics.incr t.m_tier_relaxed;
                  Some (r.B.update_stale ~budget:k (Ct.Untracked op))
              | Protocol.T_exactly_once -> assert false)

  (* Only a seq past the client's next is refused. One at or below its
     last applied seq is a resubmission: an op that failed mid-way can
     become applied after the Hello that gave its seq (a later update
     persists it), so the update runs as usual, the table answers
     [Duplicate] without applying it again, and its fence makes the
     earlier apply durable before the ack. *)
  let submit_exactly_once t ~client ~seq ~op =
    let next = next_seq t client in
    if seq > next then begin
      Metrics.incr t.m_bad_seq;
      Protocol.Refused (Protocol.R_bad_seq next)
    end
    else
      match Codec.decode Cs.update_codec op with
      | exception Codec.Decode_error _ -> Protocol.Refused Protocol.R_bad_op
      | op ->
          if degraded t then begin
            (* a sticky-degraded store takes no new writes *)
            Metrics.incr t.m_degraded;
            Protocol.Refused Protocol.R_degraded
          end
          else
            durable t ~seq (fun () ->
                if admit t then
                  Some (t.update_strict (Ct.Tracked { client; seq; op }))
                else None)

  let submit t conn ~seq ~op =
    match conn.client with
    | None -> Protocol.Refused Protocol.R_not_attached
    | Some client ->
        if t.drain_flag then begin
          Metrics.incr t.m_drained;
          Protocol.Refused Protocol.R_draining
        end
        else if conn.tier = Protocol.T_exactly_once then
          submit_exactly_once t ~client ~seq ~op
        else submit_tiered t ~seq ~op conn.tier

  let fetch t conn =
    match conn.client with
    | None -> Protocol.Refused Protocol.R_not_attached
    | Some _ ->
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
        conn.client <- None;
        Protocol.Gone

  let drain t = t.drain_flag <- true
  let draining t = t.drain_flag
  (* A degraded store cannot fence — and needs no final one: nothing was
     acked past the failed fence that made it sticky. A healthy one
     first drains the staleness tail: an orderly shutdown loses no
     acked operation, whatever its tier. *)
  let quiesce t =
    try
      Option.iter (fun r -> r.B.flush ()) t.obj.B.relaxed;
      M.fence ()
    with Onll_nvm.File_memory.Degraded _ -> ()
end
