(** ONLL — Order Now, Linearize Later (paper §4).

    The universal construction: given a machine and a deterministic
    sequential specification, produce a lock-free durably linearizable
    object using at most one persistent fence per update and none per read.

    An update proceeds in the paper's three stages:
    + {b order} — insert a descriptor node into the transient execution
      trace, fixing the operation's linearization {e order} (but not yet its
      linearization point);
    + {b persist} — append the operation {e and} every not-yet-available
      operation preceding it (the fuzzy window — helping) to the invoking
      process's persistent log, with a single persistent fence;
    + {b linearize} — set the node's flag durable, making the operation
      visible to readers; compute the return value from the trace prefix.

    A stale update ({!CONSTRUCTION.update_stale}) defers its persist stage:
    it sets its node's flag acknowledged under its budget instead, and
    fences only when its window (walked back to the first durable node)
    has reached the tightest budget in it.

    Reads find the newest visible node and compute against that prefix;
    they write no NVM (only, when first, the node's volatile {!Slot}).

    Recovery (Listing 5) rebuilds the trace from the per-process logs in
    execution-index order. The construction is {e detectable} [15]: every
    update carries a [(process, sequence)] id and {!Make.was_linearized}
    answers, after recovery, whether it took effect before the crash.

    §8 extensions implemented here: read acceleration (the paper's local
    views, realised as one published state per trace node, {!Slot}),
    trace pruning (on its own cadence, {!prune_every}) and log compaction
    via checkpoints. To keep operation identities meaningful across
    pruning and compaction, materialised states internally carry a
    per-process sequence floor (the number of that process's operations
    already summarised), so detectability and sequence allocation survive
    even when the operations themselves have been reclaimed. *)

(* The identity, report, adoption and snapshot types live with the record
   log both engines share; onll.mli documents them. Its [Make] is
   shadowed by the construction's below. *)
include Record_log

(* See onll.mli. *)
let prune_every = 1024

(* Construction-time knobs; see onll.mli. *)
module Config = struct
  type t = {
    log_capacity : int;
    replicas : int;
    local_views : bool;  (* read by nothing; see onll.mli *)
    region_suffix : string;
    sink : Onll_obs.Sink.t;
  }

  let default =
    {
      log_capacity = 1 lsl 16;
      replicas = 1;
      local_views = false;
      region_suffix = "";
      sink = Onll_obs.Sink.null;
    }
end

(* Duplicated (condensed) from onll.mli, which carries the documentation. *)
module type CONSTRUCTION = sig
  type state
  type update_op
  type read_op
  type value
  type t

  val make : Config.t -> t
  val sink : t -> Onll_obs.Sink.t
  val update : t -> update_op -> value
  val update_with_id : t -> update_op -> op_id * value
  val update_detectable : t -> seq:int -> update_op -> value
  val update_stale : t -> budget:int -> update_op -> op_id * value
  val flush : t -> unit
  val pending_ops : t -> int
  val risk_peak : t -> int
  val read : t -> read_op -> value
  val recover : t -> unit
  val recover_report : t -> Recovery_report.t
  val recover_unhardened : t -> unit
  val scrub : t -> Onll_plog.Plog.scrub_report
  val degraded : t -> bool
  val was_linearized : t -> op_id -> bool
  val recovered_ops : t -> (op_id * int) list
  val checkpoint : t -> int
  val compact : t -> int
  val prune : t -> below:int -> unit

  type envelope

  val envelope_id : envelope -> op_id
  val envelope_op : envelope -> update_op
  val trace_nodes : t -> (int * int * envelope option) list
  val trace_base : t -> int * state
  val current_state : t -> state
  val snapshot : t -> Snapshot.t
  val log_fill : t -> float
end

(* CONSTRUCTION plus the order/linearize split and the oracle-aware
   recovery a cross-shard coordinator (E19, {!Onll_txn}) needs. Duplicated
   (condensed) from onll.mli, which carries the documentation. *)
module type TXN_CAPABLE = sig
  include CONSTRUCTION

  type staged

  val reserve_seq : ?seq:int -> t -> int
  val stage_txn : ?payload:string -> t -> seq:int -> update_op -> staged
  val staged_idx : staged -> int
  val finish_txn : t -> staged -> value
  val inject_txn_run : t -> (op_id * update_op) list -> int list

  val recover_txn :
    t ->
    extra:(int * op_id * update_op) list ->
    Recovery_report.t * string list
end

(* How an update's persist stage shares fences; see onll.mli. *)
module type PERSIST_POLICY = sig
  val gather_steps : int
  val wait_steps : int
end

module Listing3 = struct
  let gather_steps = 0
  let wait_steps = 0
end

module Combining = struct
  let gather_steps = 2
  let wait_steps = 256
end

(* The construction is generic in the trace implementation (see
   Trace_intf) and the persist policy: [Make] uses the paper's lock-free
   trace, [Make_wait_free] the Kogan–Petrank-style wait-free one (§8),
   both under Listing 3; [Make_combining] the lock-free trace under the
   combining policy. *)
module Make_generic
    (M : Onll_machine.Machine_sig.S)
    (T : Trace_intf.S)
    (P : PERSIST_POLICY)
    (S : Spec.S) :
  TXN_CAPABLE
    with type state = S.state
     and type update_op = S.update_op
     and type read_op = S.read_op
     and type value = S.value = struct
  type state = S.state
  type update_op = S.update_op
  type read_op = S.read_op
  type value = S.value

  (* The envelope and record formats, the recovery routine and the
     detectability rule, shared with group commit. *)
  include Record_log.Make (M) (S)

  (* A deferring object's metrics and high-water marks, made by its first
     stale update: an object that never defers registers no metric. *)
  type relaxed = {
    c_deferred : Onll_obs.Metrics.counter;  (** acks that paid no fence *)
    c_drains : Onll_obs.Metrics.counter;  (** stale fences and flushes *)
    g_peak : Onll_obs.Metrics.gauge;
    mutable peak : int;  (** deepest stale window an ack joined *)
    mutable widest : int;  (** largest budget a stale update ran under *)
  }

  type t = {
    mutable trace : (envelope, istate, value) T.t;
        (** replaced wholesale by recovery *)
    logs : L.t array;  (** per process; the durable state *)
    seqs : int array;  (** next per-process op sequence number; owner-only *)
    failed : (envelope, istate, value) T.node option Atomic.t array;
        (** per process: its node whose persist a transient fault cut
            short, finished by the process's next update or by a cadence
            prune past it; set by its owner only *)
    staged : int array;
        (** per process: its staged transaction sub-operations not yet
            finished; owner-only *)
    mutable next_prune : int;
        (** the execution index from which an update prunes the trace *)
    mutable recovered : Recovered.t;
        (** op id -> execution index, rebuilt by recovery *)
    mutable max_fuzzy : int;
        (** largest fuzzy window observed at any persist step (Prop 5.2
            says this never exceeds MAX-PROCESSES) *)
    mutable degraded : bool;
        (** sticky: recovery or scrub found durable data this object could
            not repair — it keeps serving, but with admitted loss *)
    ostats : Onll_obs.Opstats.t;
        (** per-operation fence attribution; inert without a sink *)
    ledger : (int * op_id) list array;
        (** per process: its acknowledged unfenced operations (execution
            index, identity), newest first; owner-only. Transient, but it
            outlives a simulated crash, so hardened recovery can name the
            acknowledgements the crash voided. *)
    mutable relaxed : relaxed option;
  }

  let instances = ref 0

  let make (cfg : Config.t) =
    let n = !instances in
    incr instances;
    let sink = cfg.Config.sink in
    {
      trace = T.create ~sink ~base_idx:0 ~base_state:(initial_istate ()) ();
      logs =
        Array.init M.max_processes (fun p ->
            L.create ~sink ~replicas:cfg.Config.replicas ~key:record_key
              ~name:
                (Printf.sprintf "%s%s.%d.plog.%d" S.name
                   cfg.Config.region_suffix n p)
              ~capacity:cfg.Config.log_capacity ());
      seqs = Array.make M.max_processes 0;
      failed = Array.init M.max_processes (fun _ -> Atomic.make None);
      staged = Array.make M.max_processes 0;
      next_prune = prune_every;
      recovered = Recovered.create 0;
      max_fuzzy = 0;
      degraded = false;
      ostats = Onll_obs.Opstats.make sink;
      ledger = Array.make M.max_processes [];
      relaxed = None;
    }

  let sink t = Onll_obs.Opstats.sink t.ostats

  module A = Attribution.Make (M)

  let attributed t record f = A.attributed t.ostats record f

  (* §8, {!Slot}: published, or folded from the newest state published
     below [node]. *)
  let state_at t node = T.state_at t.trace node ~apply:apply_env
  let own_value t node ~durable =
    T.value_at t.trace node ~durable ~apply:apply_env

  (* Summarise the history up to the newest visible operation into
     process [p]'s log and drop what that makes redundant, by
     [record_key] ([Plog.checkpoint]). [held] receives the node and the
     state the checkpoint encoded. *)
  let checkpoint_body t p ~held ~worth =
    let node = T.latest_available t.trace in
    let upto =
      checkpoint_log t.logs.(p) ~upto:(T.idx node) ~worth (fun () ->
          let state = state_at t node in
          held := Some (node, state);
          state)
    in
    (* A deferring object's node may be only acknowledged: the checkpoint
       made it, and every acknowledgement below it, durable. *)
    if Option.is_some upto && Option.is_some t.relaxed then
      T.set_available node;
    upto

  let prune t ~below = T.prune t.trace ~below ~state_before:(state_at t)

  (* The one compaction: checkpoint, make the checkpoint's node the trace
     base ([T.rebase], which needs no fold), relocate. A checkpoint
     already live in the log encodes nothing, and the trace is pruned
     below it instead. A concurrent compaction that pruned deeper first
     makes the prune a no-op. *)
  let compact_body t p ~worth =
    let held = ref None in
    Option.map
      (fun upto ->
        (match !held with
        | Some (node, state) -> T.rebase t.trace node state
        | None -> prune t ~below:upto);
        L.relocate t.logs.(p);
        upto)
      (checkpoint_body t p ~held ~worth)

  (* Persist-stage append of the Ops record at [exec_idx], compacting
     first when the log says so ([Plog.append_compacting]); the update
     pays that compaction's fences. [exec_idx] is the record's drop key
     ([record_key]). *)
  let append_record t p ~exec_idx payload =
    typed_full t.logs.(p) (fun () ->
        L.append_compacting ~key:exec_idx t.logs.(p)
          ~compact:(fun ~worth -> ignore (compact_body t p ~worth))
          payload)

  (* Persist [node]'s fuzzy window; a transient fault escaping the append
     leaves the node to [finish_failed]. *)
  let persist t p node payload =
    try append_record t p ~exec_idx:(T.idx node) payload
    with Onll_nvm.Memory.Transient_fault _ as e ->
      Atomic.set t.failed.(p) (Some node);
      raise e

  (* ... then linearize it. *)
  let persist_and_linearize t p node payload =
    persist t p node payload;
    T.set_available node

  (* A node whose persist failed is neither durable nor abandoned: it
     stays ordered in the trace, and Prop 5.2's window bound counts one
     such node per process. So before its next update a process finishes
     it: a later durable node already persisted it in its window (no
     fence), else the process re-appends the node's window itself. Only
     this fault path pays that fence. Without deferral the newest visible
     node is durable; with it, the node lies below that one's window. *)
  let persisted_above t node =
    let v = T.latest_available t.trace in
    T.idx v > T.idx node
    && (Option.is_none t.relaxed || T.is_available v
       || T.idx node <= T.idx v - List.length (T.fuzzy_nodes t.trace v))

  let finish_failed t p =
    match Atomic.get t.failed.(p) with
    | None -> ()
    | Some node ->
        if persisted_above t node then T.set_available node
        else
          persist_and_linearize t p node
            (Onll_util.Codec.encode record_codec
               (Ops
                  { exec_idx = T.idx node; envs = T.fuzzy_envs t.trace node }));
        Atomic.set t.failed.(p) None

  (* {2 §8: trace pruning on its own cadence}

     Every [prune_every] execution indices, the updater whose durable node
     lies there makes it the trace's base, with the state its own fold
     left in its slot ([T.rebase], as compaction does): no fence, no fold,
     no log record. Durable means every node below is in some log record,
     so the prune passes no unfenced acknowledgement, and it keeps the
     durable set a prefix. It passes no staged transaction sub-operation,
     which only its coordinator linearizes, and it finishes each failed
     node below it: the node's persist was covered, so it is durable, and
     its process need not pin the trace until its next update. Pruned
     identities stay answerable from the base's floors, as after a
     compaction. A node whose state left its slot (a newer one was
     published two links above) or that is not durable (a stale update's
     acknowledgement) leaves the prune to the next update. Recovery reads
     the logs, not the trace. *)
  let prune_on_cadence t node =
    if T.is_available node && Array.for_all (fun n -> n = 0) t.staged then
      match T.published node with
      | None -> ()
      | Some state ->
          let idx = T.idx node in
          T.rebase t.trace node state;
          t.next_prune <- idx + prune_every;
          Array.iter
            (fun cell ->
              match Atomic.get cell with
              | Some failed as seen when T.idx failed < idx ->
                  T.set_available failed;
                  ignore (Atomic.compare_and_set cell seen None)
              | Some _ | None -> ())
            t.failed

  (* The persist stage's bookkeeping for a window [fuzzy] that process
     [p] is about to persist. *)
  let observe_window t p fuzzy =
    let fuzzy_len = List.length fuzzy in
    (* Prop 5.2 bounds the window by MAX-PROCESSES counting at most one
       in-flight operation per process; staged transaction sub-operations
       (E19) are exempt — one process may have several staged at once —
       and a deferring object adds the acknowledged operations its
       widest budget leaves at risk. Counted in one pass that allocates
       nothing. *)
    assert (
      List.fold_left
        (fun n e -> match e.e_txn with None -> n + 1 | Some _ -> n)
        0 fuzzy
      <= M.max_processes
         + match t.relaxed with None -> 0 | Some r -> r.widest - 1);
    if fuzzy_len > t.max_fuzzy then t.max_fuzzy <- fuzzy_len;
    if Onll_obs.Opstats.active t.ostats then begin
      Onll_obs.Opstats.observe_fuzzy t.ostats fuzzy_len;
      (* A window larger than 1 means this update persisted other
         processes' not-yet-available operations: helping. *)
      if fuzzy_len > 1 then
        Onll_obs.Sink.emit
          (Onll_obs.Opstats.sink t.ostats)
          ~proc:p
          (Onll_obs.Event.Help { helped = fuzzy_len - 1 })
    end

  (* Combining: a node that is not the newest lies in a newer node's
     window. Wait up to [P.wait_steps] of the caller's own steps for a
     persist that wrote it to mark it available: the first
     [P.gather_steps] in any case, so newer nodes can join the window,
     then only while the node is not the newest. The node's own flag is
     the proof, not [latest_available]: a staged node [finish_txn] made
     available may sit above it with no window written. *)
  let covered t node =
    let rec wait k =
      T.is_available node
      || k > 0
         && (if P.wait_steps - k < P.gather_steps then (M.pause (); true)
             else if T.is_newest t.trace node then false
             else (M.yield (); true))
         && wait (k - 1)
    in
    wait P.wait_steps

  (* Combining: persist [node]'s window under one fence, then mark every
     node in it available but a transaction's staged sub-operation, which
     only its coordinator linearizes. An empty window means a newer
     persist marked the node meanwhile. *)
  let persist_window t p node window =
    match window with
    | [] -> ()
    | window ->
        let fuzzy = List.map snd window in
        observe_window t p fuzzy;
        persist t p node
          (Onll_util.Codec.encode record_codec
             (Ops { exec_idx = T.idx node; envs = fuzzy }));
        List.iter
          (fun (n, e) -> if Option.is_none e.e_txn then T.set_available n)
          window

  (* Combining: a newest node whose window holds no other process's node
     has nobody to share its fence with, and persists at once (a solo
     process always does). Any other waits to be covered. *)
  let combine t p node =
    match T.fuzzy_nodes t.trace node with
    | [ _ ] as window when T.is_newest t.trace node ->
        persist_window t p node window
    | _ ->
        if not (covered t node) then
          persist_window t p node (T.fuzzy_nodes t.trace node)

  (* Process [p]'s node is durable: so is every operation it acknowledged
     before, all below that node. *)
  let forget_acks t p =
    match t.ledger.(p) with [] -> () | _ :: _ -> t.ledger.(p) <- []

  (* Listing 3, or its combining variant. *)
  let update_env_body t env =
    finish_failed t env.e_proc;
    let node = T.insert t.trace env in
    if P.wait_steps = 0 then begin
      let fuzzy = T.fuzzy_envs t.trace node in
      observe_window t env.e_proc fuzzy;
      let payload =
        Onll_util.Codec.encode record_codec
          (Ops { exec_idx = T.idx node; envs = fuzzy })
      in
      persist_and_linearize t env.e_proc node payload
    end
    else combine t env.e_proc node;
    forget_acks t env.e_proc;
    let value = own_value t node ~durable:true in
    if T.idx node >= t.next_prune then prune_on_cadence t node;
    M.return_point ();
    value

  (* No closure is built for the attribution while the sink is off. *)
  let update_env t env =
    if Onll_obs.Opstats.active t.ostats then
      attributed t Onll_obs.Opstats.update_done (fun () ->
          update_env_body t env)
    else update_env_body t env

  let update_with_id t op =
    let id = next_id t.seqs in
    (id, update_env t (envelope id op))

  let update t op = update_env t (next_envelope t.seqs op)

  (* Detectable-execution entry point: the caller chooses the sequence
     number, so it can ask {!was_linearized} about this exact operation
     after a crash, even though the call itself never returned. *)
  let update_detectable t ~seq op =
    update_env t
      (envelope (claim_id t.seqs ~who:"Onll.update_detectable" ~seq) op)

  (* {2 Deferred persistence: the stale tier (E20)}

     A stale update orders its node under its budget, then either
     acknowledges it unfenced or fences its window. It acknowledges while
     the stale nodes of its window, itself included, number fewer than the
     tightest budget among them. That keeps every acknowledged unfenced
     set shorter than every budget in it: the set lies above the newest
     durable node, so the window of its newest member held all of it, each
     member ordered under or acknowledged under its budget, and flags only
     move forward. A fence covers the whole window below its node, so the
     durable set is always a prefix of the linearization: buffered durable
     linearizability ("The Path to Durable Linearizability"). *)

  let relaxed t =
    match t.relaxed with
    | Some r -> r
    | None ->
        let sink = sink t in
        let reg =
          if Onll_obs.Sink.active sink then Onll_obs.Sink.registry sink
          else Onll_obs.Metrics.create ()
        in
        let r =
          {
            c_deferred = Onll_obs.Metrics.counter reg "fences.deferred";
            c_drains = Onll_obs.Metrics.counter reg "fences.drains";
            g_peak = Onll_obs.Metrics.gauge reg "risk.peak";
            peak = 0;
            widest = 1;
          }
        in
        t.relaxed <- Some r;
        r

  (* Over [below], the nodes under a stale update's own in its window,
     newest first: [Some depth], the stale operations its acknowledgement
     would join, itself included, while [depth] stays under [bound], the
     tightest budget among them and its own; [None] when it must fence.
     A strict node is not counted: it is never acknowledged unfenced. A
     node found durable ends the run: everything below it is. *)
  let rec at_risk below ~depth ~bound =
    match below with
    | [] -> if depth < bound then Some depth else None
    | (n, _) :: rest ->
        let f = T.flag n in
        if f = Trace_intf.durable then
          if depth < bound then Some depth else None
        else if f = Trace_intf.ordered then at_risk rest ~depth ~bound
        else
          at_risk rest ~depth:(depth + 1)
            ~bound:(min bound (Trace_intf.budget f))

  (* A drain: [node]'s window under one fence, then [node] and every
     acknowledged node below it durable (under the combining policy every
     node of it, as any of that policy's persists marks); [p]'s own acks
     are durable. *)
  let drain t p node window =
    if P.wait_steps > 0 then persist_window t p node window
    else begin
      let fuzzy = List.map snd window in
      observe_window t p fuzzy;
      persist t p node
        (Onll_util.Codec.encode record_codec
           (Ops { exec_idx = T.idx node; envs = fuzzy }));
      List.iter
        (fun (n, _) -> if T.flag n > 0 then T.set_available n)
        (List.tl window);
      T.set_available node
    end;
    forget_acks t p;
    Onll_obs.Metrics.incr (relaxed t).c_drains

  (* [acks] without those at indices [<= lo], which lie below a durable
     node; shared when none does. *)
  let keep_above lo acks =
    let rec all_above = function
      | (i, _) :: rest -> i > lo && all_above rest
      | [] -> true
    in
    let rec keep = function
      | ((i, _) as e) :: rest when i > lo -> e :: keep rest
      | _ -> []
    in
    if all_above acks then acks else keep acks

  (* [node] acknowledged at [depth]: into [p]'s ledger, which keeps only
     the acks still in the node's window. *)
  let defer t r p node id window depth =
    Onll_obs.Metrics.incr r.c_deferred;
    if depth > r.peak then begin
      r.peak <- depth;
      Onll_obs.Metrics.set r.g_peak (float_of_int depth)
    end;
    let lo = T.idx node - List.length window in
    t.ledger.(p) <- (T.idx node, id) :: keep_above lo t.ledger.(p)

  (* An operation in flight below, in a window: one that may yet fence
     it. *)
  let rec in_flight = function
    | [] -> false
    | (n, _) :: rest ->
        let f = T.flag n in
        f <> Trace_intf.durable && ((not (Trace_intf.visible f)) || in_flight rest)

  (* How many of its own steps an update the budget makes fence waits
     first while an operation is in flight below it: that one may be a
     drain whose fence covers the window, as a lock would have made it
     wait for. Bounded, so the tier stays lock-free. *)
  let drain_wait = 64

  let stale_body t id env ~budget =
    let p = env.e_proc in
    finish_failed t p;
    let node = T.insert ~budget t.trace env in
    let r = relaxed t in
    if budget > r.widest then r.widest <- budget;
    let rec decide waits =
      match T.fuzzy_nodes t.trace node with
      | [] -> true (* a combining persist made it durable *)
      | _ :: below as window -> (
          match at_risk below ~depth:1 ~bound:budget with
          | None when waits > 0 && in_flight below ->
              M.yield ();
              decide (waits - 1)
          | None ->
              drain t p node window;
              true
          | Some depth when T.set_acked node ~budget ->
              defer t r p node id window depth;
              false
          | Some _ -> true (* a combining persist made it durable first *))
    in
    let durable = decide drain_wait in
    let value = own_value t node ~durable in
    if T.idx node >= t.next_prune then prune_on_cadence t node;
    M.return_point ();
    value

  (* No closure is built for the attribution while the sink is off. *)
  let update_stale t ~budget op =
    if budget < 1 then invalid_arg "Onll.update_stale: budget must be >= 1";
    let id = next_id t.seqs in
    let env = envelope id op in
    ( id,
      if Onll_obs.Opstats.active t.ostats then
        attributed t Onll_obs.Opstats.update_done (fun () ->
            stale_body t id env ~budget)
      else stale_body t id env ~budget )

  (* The acknowledged unfenced operations: the window of the newest
     visible node, when that is not durable. *)
  let at_risk_window t =
    let node = T.latest_available t.trace in
    if T.is_available node then None
    else
      match T.fuzzy_nodes t.trace node with
      | [] -> None
      | window -> Some (node, window)

  (* The explicit lazy fence, attributed to the checkpoint class: it is
     maintenance durability work, never an update's. It first finishes
     the caller's update a fault cut short. *)
  let flush t =
    attributed t Onll_obs.Opstats.checkpoint_done (fun () ->
        let p = M.self () in
        finish_failed t p;
        Option.iter
          (fun (node, window) -> drain t p node window)
          (at_risk_window t))

  let pending_ops t =
    match at_risk_window t with
    | None -> 0
    | Some (_, window) ->
        List.fold_left (fun n (m, _) -> if T.flag m > 0 then n + 1 else n) 0
          window

  let risk_peak t = match t.relaxed with None -> 0 | Some r -> r.peak

  (* Listing 4. *)
  let read_body t rop =
    let v = S.read (state_at t (T.latest_available t.trace)).st rop in
    M.return_point ();
    v

  let read t rop =
    if Onll_obs.Opstats.active t.ostats then
      attributed t Onll_obs.Opstats.read_done (fun () -> read_body t rop)
    else read_body t rop

  (* {2 Recovery — Listing 5, hardened} *)

  (* Listing 5 through the shared routine ({!Record_log.Make.recover_logs}):
     the trace restarts at the deepest checkpoint and takes every adopted
     envelope as an available node. *)
  let recover_core t ~hardened ~extra =
    let sink = sink t in
    let r =
      recover_logs t.logs ~sink ~hardened ~extra
        ~reset:(fun base_idx base_state ->
          t.trace <- T.create ~sink ~base_idx ~base_state ())
        ~adopt:(fun e ->
          let node = T.insert t.trace e.env in
          assert (T.idx node = e.idx);
          T.set_available node)
        ~seqs:t.seqs
        ~degraded:(fun () -> t.degraded <- true)
    in
    t.recovered <- r.recovered;
    Array.iter (fun cell -> Atomic.set cell None) t.failed;
    Array.fill t.staged 0 (Array.length t.staged) 0;
    (r.report, r.txns)

  let recover_unhardened t =
    Array.fill t.ledger 0 (Array.length t.ledger) [];
    ignore (recover_core t ~hardened:false ~extra:[])

  (* Fences are attributed to ["fences.scrub"], never to the per-update
     Theorem 5.1 accounting. *)
  let scrub t =
    attributed t Onll_obs.Opstats.scrub_done (fun () ->
        scrub_logs t.logs ~degraded:(fun () -> t.degraded <- true))

  let degraded t = t.degraded

  (* {2 Detectable execution} *)

  let recovered_ops t = Recovered.by_index t.recovered

  let was_linearized t id =
    linearized ~mem:(Recovered.mem t.recovered) id
      ~base:(fun () -> snd (T.base_of t.trace))
    || List.exists
         (fun (_, _, env) ->
           match env with
           | Some e -> e.e_proc = id.id_proc && e.e_seq = id.id_seq
           | None -> false)
         (T.to_list t.trace)

  (* Hardened recovery, then the ledger settled: every acknowledgement
     still at risk at the crash is either linearized in the rebuilt
     state or named in [lost_acked], by process, oldest first. *)
  let recover_hardened t ~extra =
    let report, txns = recover_core t ~hardened:true ~extra in
    let lost = ref [] in
    for p = Array.length t.ledger - 1 downto 0 do
      List.iter
        (fun (_, id) -> if not (was_linearized t id) then lost := id :: !lost)
        t.ledger.(p);
      t.ledger.(p) <- []
    done;
    ({ report with Recovery_report.lost_acked = !lost }, txns)

  let recover_txn t ~extra = recover_hardened t ~extra
  let recover_report t = fst (recover_hardened t ~extra:[])

  let recover t = Recovery_report.check (recover_report t)

  (* {2 E19: staged updates ({!Onll_txn})}

     The order/persist/linearize split of a single update, exposed so a
     coordinator can run each stage itself: [stage_txn] orders an
     operation (insert, not yet visible, no durable write) and
     [finish_txn] linearizes a staged node once the transaction persisted
     its sub-operations with one fence in the coordinator's region.
     [inject_txn_run] is the recovery-side idempotent re-apply for
     committed sub-operations no log or oracle could place. *)

  type staged = (envelope, istate, value) T.node

  (* Allocate the next per-process sequence number without running an
     update, or claim the caller's [seq] as [update_detectable] does. The
     number counts as used — [update_detectable] will refuse it — exactly
     as if an update had consumed it. *)
  let reserve_seq ?seq t =
    match seq with
    | None -> (next_id t.seqs).id_seq
    | Some seq -> (claim_id t.seqs ~who:"Onll.reserve_seq" ~seq).id_seq

  let stage_txn ?payload t ~seq op =
    let p = M.self () in
    if seq >= t.seqs.(p) then
      invalid_arg "Onll.stage_txn: sequence number was not reserved";
    let env = { e_proc = p; e_seq = seq; e_op = op; e_txn = payload } in
    t.staged.(p) <- t.staged.(p) + 1;
    T.insert t.trace env

  let staged_idx = T.idx

  let finish_txn t s =
    T.set_available s;
    let p = M.self () in
    if t.staged.(p) > 0 then t.staged.(p) <- t.staged.(p) - 1;
    own_value t s ~durable:true

  (* One fenced Ops record in the calling process's log for a run of
     envelopes at contiguous execution indices, given oldest first with
     their indices: the record Listing 3 writes for a fuzzy window. *)
  let append_run t run =
    match List.rev run with
    | [] -> ()
    | (_, exec_idx) :: _ as newest_first ->
        List.iteri (fun k (_, idx) -> assert (idx = exec_idx - k)) newest_first;
        append_record t (M.self ()) ~exec_idx
          (Onll_util.Codec.encode record_codec
             (Ops { exec_idx; envs = List.map fst newest_first }))

  (* Insert and linearize a run of committed sub-operations during the
     coordinator sweep, then log it as one run (the inserts are
     back-to-back under one process, so the indices are contiguous);
     afterwards the operations are ordinary log residents and the next
     recovery adopts them without the oracle. The payload tag is dropped
     — the transaction is already known committed. *)
  let inject_txn_run t subs =
    let run =
      List.map
        (fun (id, op) ->
          let env = envelope id op in
          let node = T.insert t.trace env in
          T.set_available node;
          if id.id_seq >= t.seqs.(id.id_proc) then
            t.seqs.(id.id_proc) <- id.id_seq + 1;
          Recovered.add t.recovered ~proc:id.id_proc ~seq:id.id_seq
            ~idx:(T.idx node);
          (env, T.idx node))
        subs
    in
    append_run t run;
    List.map snd run

  (* {2 §8: checkpointing, log compaction, trace pruning} *)

  (* Costs one persistent fence for the appended checkpoint and one for the
     durable head update (plus relocation fences only when the log was
     full). Returns the summarised index. *)
  let checkpoint t =
    let p = M.self () in
    attributed t Onll_obs.Opstats.checkpoint_done (fun () ->
        forced t.logs.(p) (checkpoint_body t p ~held:(ref None)))

  let compact t =
    let p = M.self () in
    attributed t Onll_obs.Opstats.checkpoint_done (fun () ->
        forced t.logs.(p) (compact_body t p))

  (* {2 Introspection (tests, figures, reports)} *)

  let trace_nodes t = T.to_list t.trace

  let trace_base t =
    let i, is = T.base_of t.trace in
    (i, is.st)

  let current_state t = (state_at t (T.latest_available t.trace)).st

  let snapshot t =
    {
      Snapshot.latest_available_idx = T.idx (T.latest_available t.trace);
      max_fuzzy_window = t.max_fuzzy;
      degraded = t.degraded;
      logs = Array.to_list (Array.map snapshot_log t.logs);
    }

  let log_fill t = fill t.logs
end

(** The paper's construction: ONLL over the lock-free Listing 2 trace. *)
module Make (M : Onll_machine.Machine_sig.S) (S : Spec.S) =
  Make_generic (M) (Trace.Make (M)) (Listing3) (S)

(** §8 extension: the same construction over the wait-free trace, which
    prunes as the lock-free one does (see {!Wf_trace}). *)
module Make_wait_free (M : Onll_machine.Machine_sig.S) (S : Spec.S) =
  Make_generic (M) (Wf_trace.Make (M)) (Listing3) (S)

(** §8's group commit: the lock-free trace under the combining policy. *)
module Make_combining (M : Onll_machine.Machine_sig.S) (S : Spec.S) =
  Make_generic (M) (Trace.Make (M)) (Combining) (S)
