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
      Onll_stack.Session
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

let region_name ~client = Printf.sprintf "%s.srv.c%d" Cs.name client

module Make (M : Onll_machine.Machine_sig.S) = struct
  module Sess = Onll_session.Make (M) (Cs)
  module B = Onll_stack.Make (M) (Cs)

  (* {1 The durable object-sequence allocator}

     One Plog region holding high-watermark records: a reserve appends
     the new watermark (one fence) and hands out the [block] identities
     below it from memory. A crash abandons the unused tail of the
     current block — recovery refolds to the durable watermark, so no
     identity is ever handed out twice, which is the whole invariant:
     a reused identity would let [was_linearized] vouch for a dead
     operation and silently lose an update. *)
  module Oseq = struct
    module L = Onll_plog.Plog.Make (M)

    type t = {
      log : L.t;
      block : int;
      mutable next : int;  (* next identity to hand out *)
      mutable limit : int;  (* durable watermark: reserved below this *)
    }

    let refold t payloads =
      let wm =
        List.fold_left
          (fun acc e ->
            match Codec.decode Codec.int e with
            | w -> max acc w
            | exception Codec.Decode_error _ -> acc)
          0 payloads
      in
      t.next <- wm;
      t.limit <- wm

    let create ?(sink = Sink.null) ?(block = 1024) ?(name = "serve.oseq") () =
      if block < 1 then invalid_arg "Oseq.create: block < 1";
      let log = L.create ~sink ~name ~capacity:512 () in
      let t = { log; block; next = 0; limit = 0 } in
      refold t (L.entries log);
      t

    let recover t =
      let (_ : Onll_plog.Plog.salvage_report), payloads = L.recover t.log in
      refold t payloads

    let reserve t =
      let wm = t.limit + t.block in
      L.append t.log (Codec.encode Codec.int wm);
      (* watermark-first: the new reservation is durable before any old
         record is dropped, so a crash anywhere here refolds to >= the
         ids in use *)
      let n = L.entry_count t.log in
      if n > 1 then begin
        L.set_head t.log (n - 1);
        L.relocate t.log
      end;
      t.limit <- wm

    let next t =
      if t.next >= t.limit then reserve t;
      let v = t.next in
      t.next <- v + 1;
      v

    let watermark t = t.limit
  end

  (* {1 The durable client directory}

     Every client that ever attached, in one Plog region. This is what
     makes {e recovery-complete serving} possible: at startup the service
     resolves every known session's in-doubt operation BEFORE accepting
     any new submission. The order matters for soundness, not just
     latency — [was_linearized]'s checkpoint-floor shortcut vouches for
     any identity below the floor, which is only correct while identities
     below the floor were all actually invoked. At crash time the one
     possibly-uninvoked identity (the session mid-submit) is the highest
     ever drawn, so the salvaged floor cannot have passed it; but letting
     NEW operations run first would checkpoint past it and turn its later
     lazy recovery into a phantom apply — a silently lost update. *)
  module Dir = struct
    module L = Onll_plog.Plog.Make (M)

    type t = { log : L.t; known : (int, unit) Hashtbl.t }

    let capacity ~max_clients = max 1024 (20 * max_clients)

    let create ?(sink = Sink.null) ~max_clients () =
      let log =
        L.create ~sink ~name:"serve.clients"
          ~capacity:(capacity ~max_clients) ()
      in
      let (_ : Onll_plog.Plog.salvage_report), payloads = L.recover log in
      let known = Hashtbl.create 256 in
      List.iter
        (fun e ->
          match Codec.decode Codec.int e with
          | c -> Hashtbl.replace known c ()
          | exception Codec.Decode_error _ -> ())
        payloads;
      { log; known }

    let clients t =
      List.sort compare (Hashtbl.fold (fun c () acc -> c :: acc) t.known [])

    (* One fence per first-ever attach: the membership record must be
       durable before the session's first intent, or a crash in between
       would hide the session from the next startup's recovery sweep. *)
    let add t c =
      if not (Hashtbl.mem t.known c) then begin
        L.append t.log (Codec.encode Codec.int c);
        Hashtbl.replace t.known c ()
      end
  end

  (* {1 The service} *)

  type t = {
    sink : Sink.t;
    token : string;
    max_clients : int;
    max_staleness : int;
    (* the built stack below the sessions; its [relaxed] tiers
       (Plain|Mirrored only) are [T_strict] — exactly one piggybacking
       fence — and [T_staleness k], fence-free within the budget, plus
       the flush that drains the shared tail at quiesce *)
    obj : B.obj;
    proc : int;  (* the machine process every session runs on *)
    scfg : Onll_session.config;
    backend : Sess.backend;  (* shared by every session; b_alloc installed *)
    dir : Dir.t;
    sessions : (int, Sess.t) Hashtbl.t;
    regions : (string, int) Hashtbl.t;  (* region name -> owning client *)
    mutable drain_flag : bool;
    (* sticky: any region's fence exhausting its write-back budget marks
       the whole store — the object's own flag only covers the fences the
       object itself attempted *)
    mutable went_degraded : bool;
    mutable rbytes : int;
    g_region_bytes : Metrics.gauge;
    g_sessions : Metrics.gauge;
    m_attach : Metrics.counter;
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
    m_adopted : Metrics.counter;
    m_reinvoked : Metrics.counter;
    m_res_refused : Metrics.counter;
    m_unresolved : Metrics.counter;
    m_reads : Metrics.counter;
  }

  let wire_of_resolution t = function
    | Sess.No_pending -> Protocol.W_none
    | Sess.Was_applied id ->
        Metrics.incr t.m_adopted;
        Protocol.W_applied id.Onll_core.Onll.id_seq
    | Sess.Reinvoked (old_id, fresh, v) ->
        Metrics.incr t.m_reinvoked;
        Protocol.W_reinvoked
          (old_id.Onll_core.Onll.id_seq, fresh.Onll_core.Onll.id_seq, v)
    | Sess.Refused id ->
        Metrics.incr t.m_res_refused;
        Protocol.W_refused id.Onll_core.Onll.id_seq
    | Sess.Unresolved (id, _) ->
        Metrics.incr t.m_unresolved;
        Protocol.W_unresolved id.Onll_core.Onll.id_seq

  (* Resolve the session's in-doubt operation, degraded-safe: a sticky
     fail-stop store surfacing mid-resolution leaves the op pending and
     reports it unresolved — never a connection reset, never an ack. *)
  let resolve t sess =
    match Sess.recover sess with
    | r -> wire_of_resolution t r
    | exception Onll_nvm.File_memory.Degraded _ -> (
        t.went_degraded <- true;
        Metrics.incr t.m_unresolved;
        match Sess.pending sess with
        | Some (id, _) -> Protocol.W_unresolved id.Onll_core.Onll.id_seq
        | None -> Protocol.W_none)

  let create_service ?session ?(sink = Sink.null) ?(token = "onll")
      ?(max_clients = 10_000) ?(oseq_block = 1024)
      ?(log_capacity = Onll_core.Onll.Config.default.log_capacity)
      ?(max_staleness = 64) construction =
    let stack = stack ~max_staleness construction in
    let alloc = Oseq.create ~sink ~block:oseq_block () in
    Oseq.recover alloc;
    let sessions = Hashtbl.create 256 in
    (* The object below the sessions, which this service attaches per
       client itself. The builder applies the stack's seam rules: over
       the relaxed wrapper an exactly-once update drains the staleness
       tail first and compaction checkpoints through the wrapper; and
       both update paths draw identities from the one durable
       allocator, because they share the object's identity space. Its
       recovery subsumes the construction's. *)
    let obj =
      B.build
        ~alloc:(fun () -> Oseq.next alloc)
        (Onll_stack.without_session stack)
        { Onll_core.Onll.Config.default with log_capacity; sink }
    in
    ignore (obj.B.recover_report () : Onll_core.Onll.Recovery_report.t);
    let dir = Dir.create ~sink ~max_clients () in
    (* The compaction guard. Every session shares this process and the
       allocator, so a session's in-doubt operation may hold an identity
       that never reached the object (its intent append, or the flush
       before the object call, ran out of retries) while later
       identities did. A checkpoint now would set the process's floor
       above it, and [was_linearized] would vouch for an operation that
       never ran — the phantom apply of the {!Dir} comment, reachable on
       a live re-attach as well as after a restart. So before compacting,
       the service resolves every in-doubt operation on the spot, as the
       client's re-attach would ([resolve]: adopt it, or re-invoke it
       under a fresh identity while the old one is still answered
       truthfully), and declines, so that admission sheds, only while
       one stays in doubt. A client that never comes back cannot switch
       compaction off; when it does come back its [Hello] finds nothing
       pending, and [next_seq] tells it the operation's fate. The
       closure is tied to the service record below, which [resolve]
       needs. *)
    let compact = ref (fun () -> false) in
    let backend =
      { (B.backend obj) with Sess.b_compact = (fun () -> !compact ()) }
    in
    let scfg =
      match session with
      | Some c -> c
      | None ->
          { Onll_session.default_config with replicas = stack.replicas }
    in
    let reg = Sink.registry sink in
    let t =
      {
        sink;
        token;
        max_clients;
        max_staleness;
        obj;
        proc = M.self ();
        scfg;
        backend;
        dir;
        sessions;
        regions = Hashtbl.create 256;
        drain_flag = false;
        went_degraded = false;
        (* the allocator region (512 bytes, Oseq.create) + the directory *)
        rbytes = 512 + Dir.capacity ~max_clients;
        g_region_bytes = Metrics.gauge reg "serve.region_bytes";
        g_sessions = Metrics.gauge reg "serve.sessions";
        m_attach = Metrics.counter reg "serve.attach";
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
        m_adopted = Metrics.counter reg "serve.resolved.adopted";
        m_reinvoked = Metrics.counter reg "serve.resolved.reinvoked";
        m_res_refused = Metrics.counter reg "serve.resolved.refused";
        m_unresolved = Metrics.counter reg "serve.resolved.unresolved";
        m_reads = Metrics.counter reg "serve.reads";
      }
    in
    (compact :=
       fun () ->
         let in_doubt = ref false in
         Hashtbl.iter
           (fun _ sess ->
             if Sess.pending sess <> None then begin
               ignore (resolve t sess : Protocol.wire_resolution);
               if Sess.pending sess <> None then in_doubt := true
             end)
           t.sessions;
         (not !in_doubt)
         && begin
              obj.B.compact ();
              true
            end);
    t

  (* One session region per client, named injectively; the collision
     table turns any future naming regression into a loud failure rather
     than two clients silently sharing a durable log. *)
  let attach_session t client =
    match Hashtbl.find_opt t.sessions client with
    | Some s -> (s, false)
    | None ->
        let name = region_name ~client in
        (match Hashtbl.find_opt t.regions name with
        | Some owner when owner <> client ->
            failwith
              (Printf.sprintf
                 "Service: region %S claimed by clients %d and %d" name owner
                 client)
        | _ -> Hashtbl.replace t.regions name client);
        Dir.add t.dir client;
        let sess =
          Sess.attach ~config:t.scfg ~sink:t.sink ~name ~proc:t.proc ~client
            t.backend
        in
        Hashtbl.replace t.sessions client sess;
        t.rbytes <- t.rbytes + (t.scfg.log_capacity * t.scfg.replicas);
        if Sink.active t.sink then begin
          Metrics.set t.g_region_bytes (float_of_int t.rbytes);
          Metrics.set t.g_sessions (float_of_int (Hashtbl.length t.sessions));
          Metrics.incr t.m_attach
        end;
        (sess, true)

  (* Recovery-complete serving: every session the directory knows is
     attached and its in-doubt operation resolved before the first
     request — see the {!Dir} comment for why lazy per-Hello recovery
     would be unsound, not merely slow. *)
  let make ?session ?sink ?token ?max_clients ?oseq_block ?log_capacity
      ?max_staleness construction =
    let t =
      create_service ?session ?sink ?token ?max_clients ?oseq_block
        ?log_capacity ?max_staleness construction
    in
    List.iter
      (fun client ->
        let sess, _ = attach_session t client in
        ignore (resolve t sess : Protocol.wire_resolution))
      (Dir.clients t.dir);
    t

  type conn = { mutable auth : Sess.t option; mutable tier : Protocol.tier }

  let conn () = { auth = None; tier = Protocol.T_exactly_once }

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
      (* the first-ever attach fences (directory membership), so a sticky
         degraded store can surface right here — a protocol error, never
         a crash: nothing was attached, nothing durable happened *)
      match attach_session t client with
      | exception Onll_nvm.File_memory.Degraded _ ->
          t.went_degraded <- true;
          Metrics.incr t.m_degraded;
          Protocol.Refused Protocol.R_degraded
      | sess, fresh ->
          conn.auth <- Some sess;
          conn.tier <- tier;
          (* A fresh attach always runs recovery (the region may hold an
             interrupted pre-restart session); a re-attach on a live
             server only needs it when an op is actually in doubt. *)
          let resolution =
            if fresh || Sess.pending sess <> None then resolve t sess
            else Protocol.W_none
          in
          Protocol.Attached
            {
              next_seq = Sess.next_seq sess;
              acked = Sess.acked_below sess;
              resolution;
            }
    end

  (* Relaxed tiers (E20): no session dedup, no intent record — the ack
     path is the wrapper's, priced exactly one fence (strict) or 1/k
     (staleness). [seq] is echoed, not checked: retrying an
     indeterminate submit may double-apply; that is the tier's stated
     trade. *)
  let submit_tiered t sess ~seq ~op tier =
    match Codec.decode Cs.update_codec op with
    | exception Codec.Decode_error _ -> Protocol.Refused Protocol.R_bad_op
    | uop -> (
        (* the session's own admission step: without it the relaxed tiers
           would never shed and overload would surface as deadline
           blowouts instead of definite refusals *)
        let r = Option.get t.obj.B.relaxed in
        match
          if not (Sess.admit sess) then None
          else
            match tier with
            | Protocol.T_strict -> Some (r.B.update_strict uop)
            | Protocol.T_staleness k -> Some (r.B.update_stale ~budget:k uop)
            | Protocol.T_exactly_once -> assert false
        with
        | None ->
            Metrics.incr t.m_shed;
            Protocol.Refused Protocol.R_overloaded
        | Some v ->
            Metrics.incr t.m_ok;
            Metrics.incr
              (if tier = Protocol.T_strict then t.m_tier_strict
               else t.m_tier_relaxed);
            Protocol.Acked { seq; value = v }
        | exception Onll_nvm.File_memory.Degraded _ ->
            t.went_degraded <- true;
            Metrics.incr t.m_degraded;
            Protocol.Refused Protocol.R_degraded
        | exception Onll_nvm.Memory.Transient_fault _ ->
            Metrics.incr t.m_timeout;
            Protocol.Refused Protocol.R_timeout)

  let submit t conn ~seq ~op =
    match conn.auth with
    | None -> Protocol.Refused Protocol.R_not_attached
    | Some sess ->
        if t.drain_flag then begin
          Metrics.incr t.m_drained;
          Protocol.Refused Protocol.R_draining
        end
        else if conn.tier <> Protocol.T_exactly_once then
          submit_tiered t sess ~seq ~op conn.tier
        else if Sess.pending sess <> None then begin
          (* an unresolved in-doubt op blocks new work; the client should
             have resolved it via Hello — refuse rather than guess *)
          Metrics.incr t.m_timeout;
          Protocol.Refused Protocol.R_timeout
        end
        else if seq <> Sess.next_seq sess then begin
          Metrics.incr t.m_bad_seq;
          Protocol.Refused (Protocol.R_bad_seq (Sess.next_seq sess))
        end
        else begin
          match Codec.decode Cs.update_codec op with
          | exception Codec.Decode_error _ ->
              Protocol.Refused Protocol.R_bad_op
          | uop -> (
              match Sess.submit sess uop with
              | Ok v ->
                  Metrics.incr t.m_ok;
                  Protocol.Acked { seq; value = v }
              | Error Onll_session.Overloaded ->
                  Metrics.incr t.m_shed;
                  Protocol.Refused Protocol.R_overloaded
              | Error Onll_session.Timeout ->
                  Metrics.incr t.m_timeout;
                  Protocol.Refused Protocol.R_timeout
              | Error Onll_session.Degraded ->
                  t.went_degraded <- true;
                  Metrics.incr t.m_degraded;
                  Protocol.Refused Protocol.R_degraded
              | exception Onll_nvm.File_memory.Degraded _ ->
                  t.went_degraded <- true;
                  Metrics.incr t.m_degraded;
                  Protocol.Refused Protocol.R_degraded
              | exception Onll_nvm.Memory.Transient_fault _ ->
                  (* a transient escaped outside the session's own retry
                     (e.g. the identity allocator's fence): nothing
                     durable happened, refuse indeterminate *)
                  Metrics.incr t.m_timeout;
                  Protocol.Refused Protocol.R_timeout)
        end

  let fetch t conn =
    match conn.auth with
    | None -> Protocol.Refused Protocol.R_not_attached
    | Some sess ->
        Metrics.incr t.m_reads;
        Protocol.Got (Sess.read sess Cs.Get)

  let handle t conn (req : Protocol.req) : Protocol.resp =
    match req with
    | Protocol.Hello { client; token; tier } ->
        hello t conn ~client ~token ~tier
    | Protocol.Submit { seq; deadline_ns = _; op } -> submit t conn ~seq ~op
    | Protocol.Fetch _ -> fetch t conn
    | Protocol.Ping -> Protocol.Pong
    | Protocol.Bye ->
        conn.auth <- None;
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
  let counter_value t = t.obj.B.read Cs.Get
  let sessions t = Hashtbl.length t.sessions
  let region_bytes t = t.rbytes
  let degraded t = t.went_degraded || t.obj.B.degraded ()
end
