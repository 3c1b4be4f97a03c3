(** Bounded-staleness relaxed mode (E20); see onll_relaxed.mli. *)

module Onll = Onll_core.Onll
module Metrics = Onll_obs.Metrics
module Report = Onll.Recovery_report

module Make_over
    (M : Onll_machine.Machine_sig.S)
    (S : Onll_core.Spec.S)
    (C :
      Onll.TXN_CAPABLE
        with type state = S.state
         and type update_op = S.update_op
         and type read_op = S.read_op
         and type value = S.value) =
struct
  module A = Onll_core.Attribution.Make (M)
  module Lock = Onll_machine.Spinlock.Make (M)

  (* An acknowledged-but-possibly-unfenced operation: its sole durable
     hope is the next drain (or an incidental checkpoint). *)
  type pending = {
    p_staged : C.staged;  (** its trace node, at its execution index *)
    p_id : Onll.op_id;
    p_budget : int;  (** the staleness bound this op was acked under *)
  }

  type t = {
    obj : C.t;
    budget_ops : int;  (** default k: max acked-unfenced operations *)
    lock : Lock.t;
        (** serialises tail manipulation and drains across processes; the
            tail is one global suffix, never per-process (see the prefix
            argument in the mli) *)
    mutable tail : pending list;
        (** newest first, at contiguous execution indices: every insert
            into the trace is a staging under the lock; the ops at risk *)
    mutable depth : int;  (** [List.length tail] *)
    mutable bound : int;
        (** the tightest budget any op in the tail was acked under;
            [max_int] when the tail is empty *)
    acked : (Onll.op_id, unit) Hashtbl.t;
        (** every acked operation still at risk — drains and checkpoints
            prune what they made durable, so the ledger stays bounded by
            the budget instead of growing with total relaxed ops. Plain
            transient bookkeeping — it deliberately survives a simulated
            crash, so recovery can name exactly which acks the crash
            voided. *)
    mutable peak : int;
    ostats : Onll_obs.Opstats.t;
    c_deferred : Metrics.counter;  (** acks that paid no fence *)
    c_drains : Metrics.counter;
    g_peak : Metrics.gauge;  (** deepest tail ever = worst-case ops at risk *)
  }

  let attach ?(max_unfenced_ops = 8) (cfg : Onll.Config.t) obj =
    if max_unfenced_ops < 1 then
      invalid_arg "Onll_relaxed.attach: max_unfenced_ops must be >= 1";
    let sink = cfg.Onll.Config.sink in
    let reg =
      if Onll_obs.Sink.active sink then Onll_obs.Sink.registry sink
      else Metrics.create ()
    in
    {
      obj;
      budget_ops = max_unfenced_ops;
      lock = Lock.make ();
      tail = [];
      depth = 0;
      bound = max_int;
      acked = Hashtbl.create 64;
      peak = 0;
      ostats = Onll_obs.Opstats.make sink;
      c_deferred = Metrics.counter reg "fences.deferred";
      c_drains = Metrics.counter reg "fences.drains";
      g_peak = Metrics.gauge reg "risk.peak";
    }

  let inner t = t.obj
  let pending_ops t = t.depth
  let risk_peak t = t.peak

  (* The tail set to [tail], with its depth and bound. *)
  let set_tail t tail =
    t.tail <- tail;
    t.depth <- List.length tail;
    t.bound <- List.fold_left (fun m pd -> min m pd.p_budget) max_int tail

  (* {2 The one compaction}

     A compaction of the inner object summarises everything available —
     which includes the whole tail, since acked operations are available
     the moment they are acked — so the tail is durable and dropped. Only
     a staged node a failed drain left unavailable, newest, stays in it
     for the next drain. {!checkpoint} runs it. Must hold the lock. *)
  let rec prune_acked t = function
    | [] -> ()
    | pd :: rest ->
        Hashtbl.remove t.acked pd.p_id;
        prune_acked t rest

  let compact_locked t =
    let upto = C.compact t.obj in
    let covered, rest =
      List.partition (fun pd -> C.staged_idx pd.p_staged <= upto) t.tail
    in
    prune_acked t covered;
    set_tail t rest;
    upto

  (* {2 The lazy fence} *)

  (* The staged nodes of a newest-first tail, oldest first. *)
  let rec oldest_first acc = function
    | [] -> acc
    | pd :: rest -> oldest_first (pd.p_staged :: acc) rest

  (* ONE fenced Ops record in the calling process's engine log covering
     the whole tail, oldest first: one window of operations under one
     fence, as Listing 3 writes it. Draining the whole tail (never a
     sub-range) is what keeps the durable set a prefix of the
     linearization at all times. Must hold the lock. *)
  let drain_locked t =
    match t.tail with
    | [] -> ()
    | tail ->
        C.persist_staged t.obj (oldest_first [] tail);
        Metrics.incr t.c_drains;
        (* fenced = durable: a drained op can never appear in lost_acked,
           so it leaves the ledger here *)
        prune_acked t tail;
        set_tail t []

  (* Shared ack path. [strict]: the caller wants classic durable
     linearizability for this operation — it is staged like the others
     but the tail (including it) is drained before the ack, so it costs
     exactly the one fence of Theorem 5.1 and lazily covers every
     deferred predecessor (piggybacking). Relaxed: the ack is fence-free
     unless it fills the risk budget. [seq]: the caller's identity, if
     any, as for a detectable update. [k]: the staleness bound the op is
     acked under. *)
  let ack t ~strict seq k op =
    Lock.with_lock t.lock (fun () ->
        let seq = C.reserve_seq ?seq t.obj in
        let id = { Onll.id_proc = M.self (); id_seq = seq } in
        let st = C.stage_txn t.obj ~seq op in
        t.tail <- { p_staged = st; p_id = id; p_budget = k } :: t.tail;
        t.depth <- t.depth + 1;
        (* The tightest bound any pending op was acked under governs the
           whole tail: an op promised staleness <= k must never sit in a
           deeper unfenced suffix. *)
        t.bound <- min t.bound k;
        if t.depth > t.peak then begin
          t.peak <- t.depth;
          Metrics.set t.g_peak (float_of_int t.peak)
        end;
        let drained = strict || t.depth >= t.bound in
        if drained then drain_locked t else Metrics.incr t.c_deferred;
        let v = C.finish_txn t.obj st in
        (* a drained op is already durable — only unfenced acks enter the
           ledger (drain_locked prunes the rest) *)
        if not drained then Hashtbl.replace t.acked id ();
        M.return_point ();
        (id, v))

  let update_impl t ~strict ?seq ?budget op =
    (* validate before touching the lock, like {!attach} does: a bad
       argument is a recoverable caller error, never a wedged object *)
    let k =
      match budget with
      | None -> t.budget_ops
      | Some b ->
          if b < 1 then
            invalid_arg "Onll_relaxed.update: budget must be >= 1";
          min b t.budget_ops
    in
    (* No closure is built for the attribution while the sink is off. *)
    if Onll_obs.Opstats.active t.ostats then
      A.attributed t.ostats Onll_obs.Opstats.update_done (fun () ->
          ack t ~strict seq k op)
    else ack t ~strict seq k op

  let update ?budget t op = update_impl t ~strict:false ?budget op
  let update_strict t op = update_impl t ~strict:true op

  let update_detectable t ~seq op =
    snd (update_impl t ~strict:true ~seq op)

  let read t op =
    (* Reads see the acked-volatile frontier — that is the relaxed
       contract. Still zero fences, zero shared writes. *)
    C.read t.obj op

  (* The explicit lazy fence: attributed to the checkpoint class, never
     to the per-update Theorem 5.1 accounting — it is maintenance
     durability work, like a checkpoint. *)
  let flush t =
    A.attributed t.ostats Onll_obs.Opstats.checkpoint_done (fun () ->
        Lock.with_lock t.lock (fun () -> drain_locked t))

  let checkpoint t = Lock.with_lock t.lock (fun () -> compact_locked t)

  let was_linearized t id = C.was_linearized t.obj id

  (* {2 Recovery} *)

  (* Hardened recovery: the inner object's own, since every drain is one
     of its records, then settle the ledger: every at-risk ack (drained
     acks left the ledger when fenced — they are durable by
     construction) is either linearized now or named in [lost_acked].
     The lost set is, by construction, the unfenced suffix at the crash
     (minus anything an incidental checkpoint saved). *)
  let recover_report t =
    Lock.release t.lock;
    let r = C.recover_report t.obj in
    let lost =
      Hashtbl.fold
        (fun id () acc ->
          if C.was_linearized t.obj id then acc else id :: acc)
        t.acked []
      |> List.sort (fun a b ->
             compare (a.Onll.id_proc, a.Onll.id_seq)
               (b.Onll.id_proc, b.Onll.id_seq))
    in
    set_tail t [];
    Hashtbl.reset t.acked;
    { r with Report.lost_acked = lost }

  (* The calibration baseline: the inner object's unhardened recovery,
     with the ledger forgotten — exactly the mistake the checker and the
     chaos audits must catch. *)
  let recover_unhardened t =
    Lock.release t.lock;
    set_tail t [];
    Hashtbl.reset t.acked;
    C.recover_unhardened t.obj

  let snapshot t = C.snapshot t.obj
end
