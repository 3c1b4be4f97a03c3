(** Durable client sessions (see onll_session.mli). *)

module Codec = Onll_util.Codec
module Splitmix = Onll_util.Splitmix
module Sink = Onll_obs.Sink
module Event = Onll_obs.Event
module Metrics = Onll_obs.Metrics

type error = Timeout | Overloaded | Degraded

let pp_error ppf = function
  | Timeout -> Format.pp_print_string ppf "timeout"
  | Overloaded -> Format.pp_print_string ppf "overloaded"
  | Degraded -> Format.pp_print_string ppf "degraded"

type degradation = Fail_writes | Read_only | Best_effort

type config = {
  log_capacity : int;
  replicas : int;
  max_attempts : int;
  backoff_base : int;
  backoff_cap : int;
  deadline : int;
  high_watermark : float;
  degradation : degradation;
  rng_seed : int;
}

let default_config =
  {
    log_capacity = 4096;
    replicas = 1;
    max_attempts = 8;
    backoff_base = 1;
    backoff_cap = 64;
    deadline = 256;
    high_watermark = 0.85;
    degradation = Fail_writes;
    rng_seed = 0;
  }

(* The durable client record is a log of these. [Intent] is appended
   before every object invocation: the sequence number it consumes, the
   ack watermark as of that moment (the previous operation's durable
   acknowledgement piggybacks here — no extra fence), and the encoded
   operation so recovery can re-invoke it. [Summary] replaces the whole
   prefix at compaction. *)
type record =
  | Intent of int * int * string  (* seq, acked_below, encoded op *)
  | Summary of int * int  (* next_seq, acked_below *)

let record_codec =
  Codec.tagged
    (function
      | Intent (seq, ack, op) ->
          (0, Codec.encode Codec.(triple int int string) (seq, ack, op))
      | Summary (next, ack) -> (1, Codec.encode Codec.(pair int int) (next, ack)))
    (fun tag payload ->
      match tag with
      | 0 ->
          let seq, ack, op =
            Codec.decode Codec.(triple int int string) payload
          in
          Intent (seq, ack, op)
      | 1 ->
          let next, ack = Codec.decode Codec.(pair int int) payload in
          Summary (next, ack)
      | _ -> raise (Codec.Decode_error "Onll_session: unknown record tag"))

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) = struct
  module L = Onll_plog.Plog.Make (M)

  type backend = {
    b_update_detectable : seq:int -> S.update_op -> S.value;
    b_was_linearized : S.update_op -> Onll_core.Onll.op_id -> bool;
    b_read : S.read_op -> S.value;
    b_degraded : unit -> bool;
    b_pressure : unit -> float;
    b_compact : unit -> unit;
  }

  type t = {
    cfg : config;
    sink : Sink.t;
    t_client : int;  (* also the machine process running its durable work *)
    backend : backend;
    log : L.t;
    lname : string;
    rng : Splitmix.t;
    mutable next : int;  (* next fresh sequence number *)
    mutable acked : int;  (* every seq below this is resolved *)
    mutable pend : (int * S.update_op) option;  (* durable in-doubt op *)
    admission : Onll_core.Admission.t;
    mutable attempts : Onll_core.Onll.op_id list;  (* newest first *)
    (* metric handles, resolved once *)
    m_retries : Metrics.counter;
    m_indoubt : Metrics.counter;
    m_compactions : Metrics.counter;
    m_degraded_writes : Metrics.counter;
    m_degraded_reads : Metrics.counter;
    m_session_ops : Metrics.counter;
    m_session_fences : Metrics.counter;
    m_compact_fences : Metrics.counter;
    h_ok : Metrics.histogram;
    h_timeout : Metrics.histogram;
    h_shed : Metrics.histogram;
    h_degraded : Metrics.histogram;
  }

  type resolution =
    | No_pending
    | Was_applied of Onll_core.Onll.op_id
    | Reinvoked of Onll_core.Onll.op_id * Onll_core.Onll.op_id * S.value
    | Refused of Onll_core.Onll.op_id
    | Unresolved of Onll_core.Onll.op_id * error

  let pp_resolution ppf = function
    | No_pending -> Format.pp_print_string ppf "no-pending"
    | Was_applied id ->
        Format.fprintf ppf "was-applied(%a)" Onll_core.Onll.pp_op_id id
    | Reinvoked (old_id, fresh, _) ->
        Format.fprintf ppf "reinvoked(%a as %a)" Onll_core.Onll.pp_op_id
          old_id Onll_core.Onll.pp_op_id fresh
    | Refused id ->
        Format.fprintf ppf "refused(%a)" Onll_core.Onll.pp_op_id id
    | Unresolved (id, e) ->
        Format.fprintf ppf "unresolved(%a: %a)" Onll_core.Onll.pp_op_id id
          pp_error e

  let emit_outcome t ~seq outcome =
    if Sink.active t.sink then
      Sink.emit t.sink ~proc:t.t_client
        (Event.Session { client = t.t_client; seq; outcome })

  let observe t hist t0 =
    if Sink.active t.sink then Metrics.observe hist (Sink.now t.sink - t0)

  (* Rebuild the volatile cursors from the durable record. The last intent
     is the in-doubt operation unless a later ack watermark (piggybacked on
     a subsequent record) already passed it. Undecodable entries are
     skipped: the log layer's salvage has already quarantined media damage,
     and a half-written record can only be the torn last entry. *)
  let refold t payloads =
    t.next <- 0;
    t.acked <- 0;
    t.pend <- None;
    List.iter
      (fun e ->
        match Codec.decode record_codec e with
        | Intent (seq, ack, opb) ->
            if seq >= t.next then t.next <- seq + 1;
            if ack > t.acked then t.acked <- ack;
            (match Codec.decode S.update_codec opb with
            | op -> t.pend <- Some (seq, op)
            | exception Codec.Decode_error _ -> ())
        | Summary (next, ack) ->
            if next > t.next then t.next <- next;
            if ack > t.acked then t.acked <- ack
        | exception Codec.Decode_error _ -> ())
      payloads;
    match t.pend with
    | Some (seq, _) when seq < t.acked -> t.pend <- None
    | _ -> ()

  let attach ?(config = default_config) ?(sink = Sink.null) ?name ~client
      backend =
    if client < 0 || client >= M.max_processes then
      invalid_arg "Onll_session.attach: client out of range";
    let lname =
      match name with
      | Some n -> n
      | None -> Printf.sprintf "%s.session.c%d" S.name client
    in
    let log =
      L.create ~sink ~replicas:config.replicas ~name:lname
        ~capacity:config.log_capacity ()
    in
    let reg = Sink.registry sink in
    let t =
      {
        cfg = config;
        sink;
        t_client = client;
        backend;
        log;
        lname;
        rng =
          (* Jitter is deterministic per (seed, client): campaigns replay
             byte-identically under a pinned [rng_seed]; 0 keeps the
             historical per-client derivation. *)
          Splitmix.create
            (if config.rng_seed = 0 then 0x5e5510 + (client * 7919)
             else config.rng_seed + (client * 7919));
        next = 0;
        acked = 0;
        pend = None;
        admission =
          Onll_core.Admission.create ~watermark:config.high_watermark;
        attempts = [];
        m_retries = Metrics.counter reg "session.retries";
        m_indoubt = Metrics.counter reg "session.indoubt";
        m_compactions = Metrics.counter reg "session.compactions";
        m_degraded_writes = Metrics.counter reg "session.degraded_writes";
        m_degraded_reads = Metrics.counter reg "session.degraded_reads";
        m_session_ops = Metrics.counter reg "ops.session";
        m_session_fences = Metrics.counter reg "fences.session";
        m_compact_fences = Metrics.counter reg "fences.session.compact";
        h_ok = Metrics.histogram reg "session.latency.ok";
        h_timeout = Metrics.histogram reg "session.latency.timeout";
        h_shed = Metrics.histogram reg "session.latency.shed";
        h_degraded = Metrics.histogram reg "session.latency.degraded";
      }
    in
    refold t (L.entries t.log);
    t

  let client t = t.t_client
  let next_seq t = t.next
  let acked_below t = t.acked

  let pending t =
    match t.pend with
    | None -> None
    | Some (seq, op) ->
        Some ({ Onll_core.Onll.id_proc = t.t_client; id_seq = seq }, op)

  let last_attempt_ids t = List.rev t.attempts
  let pressure t = Onll_core.Admission.last t.admission
  let log_name t = t.lname

  let check_owner t fn =
    let p = M.self () in
    if p <> t.t_client then
      invalid_arg
        (Printf.sprintf "Onll_session.%s: process %d on client %d's session"
           fn p t.t_client)

  (* Compact the client-record log when headroom runs low. Summary-first:
     the summary (which subsumes every earlier record) is appended before
     any entry is dropped, so a crash anywhere in this sequence leaves a
     durable prefix that refolds to the same cursors — in particular the
     sequence allocator can never move backwards. *)
  let summary_slack = 96

  let maybe_compact t ~need =
    if L.free_bytes t.log < need + summary_slack then begin
      let pf0 = M.persistent_fences_by ~proc:t.t_client in
      let summary = Codec.encode record_codec (Summary (t.next, t.acked)) in
      L.append t.log summary;
      let n = L.entry_count t.log in
      if n > 1 then L.set_head t.log (n - 1);
      L.relocate t.log;
      if Sink.active t.sink then begin
        Metrics.incr t.m_compactions;
        Metrics.add t.m_compact_fences
          (M.persistent_fences_by ~proc:t.t_client - pf0)
      end
    end

  (* Durably append the intent record: the one persistent fence the
     session adds per submission, attributed to fences.session/ops.session
     (never to the object's per-update accounting). *)
  let append_intent t ~seq opb =
    let bytes = Codec.encode record_codec (Intent (seq, t.acked, opb)) in
    maybe_compact t ~need:(String.length bytes + 16);
    let pf0 = M.persistent_fences_by ~proc:t.t_client in
    L.append t.log bytes;
    if Sink.active t.sink then begin
      Metrics.incr t.m_session_ops;
      Metrics.add t.m_session_fences
        (M.persistent_fences_by ~proc:t.t_client - pf0)
    end

  (* Bounded exponential backoff with deterministic jitter. Returns [true]
     to retry, [false] when the attempt or deadline budget is exhausted.
     [budget] accumulates the logical backoff spent on this operation. *)
  let backoff t ~site ~attempt budget =
    if attempt >= t.cfg.max_attempts then false
    else begin
      let base =
        min (t.cfg.backoff_base * (1 lsl min (attempt - 1) 20)) t.cfg.backoff_cap
      in
      let delay = base + Splitmix.int t.rng (base + 1) in
      budget := !budget + delay;
      if t.cfg.deadline > 0 && !budget > t.cfg.deadline then false
      else begin
        if Sink.active t.sink then begin
          Metrics.incr t.m_retries;
          Sink.emit t.sink ~proc:t.t_client (Event.Retry { site; attempt })
        end;
        for _ = 1 to delay do
          M.pause ()
        done;
        true
      end
    end

  (* The shared exactly-once invocation path: append the intent for a
     fresh sequence number, invoke the object under it, ack. Each retry
     after a transient fault runs under a *fresh* identity, and only after
     [was_linearized] has denied the previous one — an identity is never
     invoked twice, so at most one attempt can ever take effect. *)
  let invoke t op =
    let opb = Codec.encode S.update_codec op in
    let budget = ref 0 in
    let rec attempt_intent n = attempt_intent_at n t.next
    and attempt_intent_at n seq =
      match append_intent t ~seq opb with
      | () ->
          t.next <- seq + 1;
          t.pend <- Some (seq, op);
          attempt_invoke n seq
      | exception Onll_nvm.Memory.Transient_fault _ ->
          (* The append did not advance the log's cursor, and [seq] never
             reached the object — but the bytes may still reach media (a
             crash can flush them), so the operation is in-doubt under
             this identity from here on. Retry under the SAME seq: the
             failed append never advanced the tail, so the retried record
             overwrites the same offset and carries the same identity —
             at most one intent for it can ever be durable, and either
             one refolds to the same cursors. *)
          t.pend <- Some (seq, op);
          if backoff t ~site:"session.intent" ~attempt:n budget then
            attempt_intent_at (n + 1) seq
          else Error Timeout
    and attempt_invoke n seq =
      let id = { Onll_core.Onll.id_proc = t.t_client; id_seq = seq } in
      t.attempts <- id :: t.attempts;
      match t.backend.b_update_detectable ~seq op with
      | v ->
          t.acked <- seq + 1;
          t.pend <- None;
          Ok (id, v)
      | exception Onll_nvm.Memory.Transient_fault _ ->
          (* A transient escaped the object's own bounded retry during its
             persist stage — *after* the operation was ordered. Ask before
             acting: if the operation is (or will be, via helping) in the
             history, re-invoking it would duplicate it. *)
          if t.backend.b_was_linearized op id then begin
            if Sink.active t.sink then Metrics.incr t.m_indoubt;
            Error Timeout (* applied but unacknowledged; resolve via recover *)
          end
          else if backoff t ~site:"session.invoke" ~attempt:n budget then
            attempt_intent (n + 1)
          else Error Timeout
    in
    attempt_intent 1

  (* Admission control ({!Onll_core.Admission}) over the backend's log
     fill and compaction. *)
  let admit t =
    Onll_core.Admission.admit t.admission ~fill:t.backend.b_pressure
      ~compact:t.backend.b_compact

  let submit t op =
    check_owner t "submit";
    (match t.pend with
    | Some (seq, _) when seq >= t.acked ->
        invalid_arg
          (Printf.sprintf
             "Onll_session.submit: operation seq=%d is unresolved (call \
              recover first)"
             seq)
    | _ -> ());
    let t0 = if Sink.active t.sink then Sink.now t.sink else 0 in
    let degraded = t.backend.b_degraded () in
    if degraded && t.cfg.degradation <> Best_effort then begin
      emit_outcome t ~seq:t.next Sess_refused;
      observe t t.h_degraded t0;
      Error Degraded
    end
    else begin
      if degraded && Sink.active t.sink then
        Metrics.incr t.m_degraded_writes;
      if not (admit t) then begin
        emit_outcome t ~seq:t.next Sess_shed;
        observe t t.h_shed t0;
        Error Overloaded
      end
      else begin
        t.attempts <- [];
        match invoke t op with
        | Ok (id, v) ->
            emit_outcome t ~seq:id.Onll_core.Onll.id_seq Sess_ok;
            observe t t.h_ok t0;
            Ok v
        | Error e ->
            let seq =
              match t.pend with Some (s, _) -> s | None -> t.next
            in
            emit_outcome t ~seq Sess_timeout;
            observe t t.h_timeout t0;
            Error e
      end
    end

  let recover t =
    check_owner t "recover";
    let (_ : Onll_plog.Plog.salvage_report), payloads = L.recover t.log in
    refold t payloads;
    match t.pend with
    | None -> No_pending
    | Some (seq, op) -> (
        let old_id = { Onll_core.Onll.id_proc = t.t_client; id_seq = seq } in
        if t.backend.b_was_linearized op old_id then begin
          (* Exactly-once, applied half: the in-doubt operation is in the
             adopted history — never re-invoke it. *)
          t.acked <- max t.acked (seq + 1);
          t.pend <- None;
          emit_outcome t ~seq Sess_applied;
          Was_applied old_id
        end
        else if t.backend.b_degraded () && t.cfg.degradation = Read_only
        then begin
          emit_outcome t ~seq Sess_refused;
          Refused old_id
        end
        else begin
          (* Exactly-once, lost half: the operation did not survive the
             crash; honour the promise by re-invoking it under a fresh
             identity (the old one is definitively dead post-recovery). *)
          t.attempts <- [];
          match invoke t op with
          | Ok (fresh, v) ->
              emit_outcome t ~seq:fresh.Onll_core.Onll.id_seq Sess_reinvoked;
              Reinvoked (old_id, fresh, v)
          | Error e ->
              emit_outcome t ~seq Sess_timeout;
              Unresolved (old_id, e)
        end)

  let read t r =
    if t.backend.b_degraded () && Sink.active t.sink then
      Metrics.incr t.m_degraded_reads;
    t.backend.b_read r
end
