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
    + {b linearize} — set the node's available flag, making the operation
      visible to readers; compute the return value from the trace prefix.

    Reads find the newest available node and compute against that prefix;
    they never write shared memory or NVM.

    Recovery (Listing 5) rebuilds the trace from the per-process logs in
    execution-index order. The construction is {e detectable} [15]: every
    update carries a [(process, sequence)] id and {!Make.was_linearized}
    answers, after recovery, whether it took effect before the crash.

    §8 extensions implemented here: per-process local views (read
    acceleration), trace pruning and log compaction via checkpoints. To keep
    operation identities meaningful across compaction, materialised states
    internally carry a per-process sequence floor (the number of that
    process's operations already summarised), so detectability and sequence
    allocation survive even when the operations themselves have been
    reclaimed. *)

module Metrics = Onll_obs.Metrics

type op_id = { id_proc : int; id_seq : int }

let pp_op_id ppf { id_proc; id_seq } =
  Format.fprintf ppf "p%d#%d" id_proc id_seq

exception Recovery_corrupt of string
(** Raised when the durable logs are mutually inconsistent (which the
    correctness argument of Prop. 5.10 rules out for crash-consistent logs,
    so this indicates actual corruption or a bug). *)

exception Log_full of string
(** Raised (with the log's region name) when an update or checkpoint record
    cannot be made durable even after auto-compaction: the live history
    alone exceeds the log's capacity. Unlike {!Onll_plog.Plog.Full}, this
    is terminal for the configured capacity. *)

(* What a hardened recovery found and did; see onll.mli. *)
module Recovery_report = struct
  type t = {
    recovered_ops : int;
    base_idx : int;
    gap_indices : int list;
    dropped : op_id list;
    disagreements : int list;
    decode_failures : int;
    salvage : (string * Onll_plog.Plog.salvage_report) list;
    lost_acked : op_id list;
  }

  let detected_loss r =
    r.gap_indices <> [] || r.dropped <> [] || r.disagreements <> []
    || r.decode_failures > 0
    || List.exists
         (fun (_, s) -> s.Onll_plog.Plog.quarantined_spans > 0)
         r.salvage

  let clean r = not (detected_loss r)

  let check r =
    match (r.disagreements, r.gap_indices) with
    | d :: _, _ ->
        raise
          (Recovery_corrupt
             (Printf.sprintf "logs disagree on operation at index %d" d))
    | [], g :: _ ->
        raise
          (Recovery_corrupt
             (Printf.sprintf "operation at index %d missing from all logs" g))
    | [], [] ->
        if r.decode_failures > 0 then
          raise (Recovery_corrupt "undecodable log entry")

  let merge rs =
    let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
    {
      recovered_ops = sum (fun r -> r.recovered_ops);
      base_idx = sum (fun r -> r.base_idx);
      gap_indices = List.concat_map (fun r -> r.gap_indices) rs;
      dropped = List.concat_map (fun r -> r.dropped) rs;
      disagreements = List.concat_map (fun r -> r.disagreements) rs;
      decode_failures = sum (fun r -> r.decode_failures);
      salvage = List.concat_map (fun r -> r.salvage) rs;
      lost_acked = List.concat_map (fun r -> r.lost_acked) rs;
    }

  let pp ppf r =
    Format.fprintf ppf
      "@[<v>recovered_ops=%d base_idx=%d gaps=%d dropped=%d disagreements=%d \
       decode_failures=%d lost_acked=%d@,"
      r.recovered_ops r.base_idx
      (List.length r.gap_indices)
      (List.length r.dropped)
      (List.length r.disagreements)
      r.decode_failures
      (List.length r.lost_acked);
    List.iter
      (fun (name, s) ->
        if s <> Onll_plog.Plog.clean_report then
          Format.fprintf ppf "%s: %a@," name Onll_plog.Plog.pp_salvage_report
            s)
      r.salvage;
    Format.fprintf ppf "detected_loss=%b@]" (detected_loss r)

  let to_metrics ?(prefix = "recovery.") reg r =
    let c name v = Metrics.add (Metrics.counter reg (prefix ^ name)) v in
    let g name v = Metrics.set (Metrics.gauge reg (prefix ^ name)) v in
    c "recovered_ops" r.recovered_ops;
    c "gaps" (List.length r.gap_indices);
    c "dropped" (List.length r.dropped);
    c "disagreements" (List.length r.disagreements);
    c "decode_failures" r.decode_failures;
    c "lost_acked" (List.length r.lost_acked);
    g "base_idx" (float_of_int r.base_idx);
    g "detected_loss" (if detected_loss r then 1. else 0.);
    let torn, quarantined, lost_bytes, repaired, repaired_bytes =
      List.fold_left
        (fun (t, q, lb, re, rb) (_, s) ->
          ( t + s.Onll_plog.Plog.torn_tail_bytes,
            q + s.Onll_plog.Plog.quarantined_spans,
            lb + Onll_plog.Plog.report_lost s,
            re + s.Onll_plog.Plog.repaired_entries,
            rb + s.Onll_plog.Plog.repaired_bytes ))
        (0, 0, 0, 0, 0) r.salvage
    in
    c "salvage.torn_tail_bytes" torn;
    c "salvage.quarantined_spans" quarantined;
    c "salvage.bytes_lost" lost_bytes;
    c "salvage.repaired_entries" repaired;
    c "salvage.repaired_bytes" repaired_bytes

  let to_json ?(meta = []) r =
    let reg = Metrics.create () in
    to_metrics reg r;
    Onll_obs.Export.json ~meta:(("report", "recovery") :: meta) reg
end

(* Listing 5's one decision — which logged operations recovery adopts;
   see onll.mli. *)
module Adoption = struct
  type 'e entry = {
    idx : int;
    proc : int;
    seq : int;
    env : 'e;
    resident : bool;
  }

  (* By index, log-resident copies before oracle ones. *)
  let index_order a b =
    match Int.compare a.idx b.idx with
    | 0 -> Bool.compare b.resident a.resident
    | c -> c

  let run ~base_idx ~floors entries ~adopt =
    (* Sorted stably, so the earlier copy of an index comes first, and
       swept once, keeping the first copy of each index. *)
    let a = Array.of_list entries in
    Array.stable_sort index_order a;
    (* The highest index with a log-resident copy: the horizon below
       which a missing index is reportable loss. *)
    let rec log_max i =
      if i < 0 then base_idx
      else if a.(i).resident then max base_idx a.(i).idx
      else log_max (i - 1)
    in
    let log_max = log_max (Array.length a - 1) in
    (* An oracle entry counts only above the base and when its identity
       has no first log copy: a sub-operation an earlier sweep re-applied
       (and logged) at a relocated index would otherwise collide with its
       own commit record's stale staging index. *)
    let counts =
      if Array.for_all (fun e -> e.resident) a then fun _ -> true
      else begin
        let ids = Hashtbl.create (Array.length a) in
        Array.iteri
          (fun i e ->
            if e.resident && (i = 0 || a.(i - 1).idx <> e.idx) then
              Hashtbl.replace ids (e.proc, e.seq) ())
          a;
        fun e ->
          e.resident
          || (e.idx > base_idx && not (Hashtbl.mem ids (e.proc, e.seq)))
      end
    in
    let seqs = Array.copy floors in
    let gaps = ref [] and dropped = ref [] and disagreements = ref [] in
    let kept_idx = ref min_int and kept_proc = ref 0 and kept_seq = ref 0 in
    let upto = ref base_idx and next = ref (base_idx + 1) in
    Array.iter
      (fun e ->
        if not (counts e) then ()
        else if e.idx = !kept_idx then begin
          (* Duplicates are fine (helping stores the same operation in
             several logs); they must agree on the operation id. *)
          if e.proc <> !kept_proc || e.seq <> !kept_seq then
            disagreements := e.idx :: !disagreements
        end
        else begin
          kept_idx := e.idx;
          kept_proc := e.proc;
          kept_seq := e.seq;
          if e.seq >= seqs.(e.proc) then seqs.(e.proc) <- e.seq + 1;
          if e.idx > base_idx then begin
            for missing = !next to min (e.idx - 1) log_max do
              gaps := missing :: !gaps
            done;
            next := e.idx + 1;
            if e.idx = !upto + 1 then begin
              adopt e;
              upto := e.idx
            end
            else if e.resident then
              dropped := { id_proc = e.proc; id_seq = e.seq } :: !dropped
          end
        end)
      a;
    for missing = !next to log_max do
      gaps := missing :: !gaps
    done;
    ( {
        Recovery_report.recovered_ops = !upto - base_idx;
        base_idx;
        gap_indices = List.rev !gaps;
        dropped = List.rev !dropped;
        disagreements = List.sort_uniq compare !disagreements;
        decode_failures = 0;
        salvage = [];
        lost_acked = [];
      },
      seqs )
end

(* Construction-time knobs; see onll.mli. *)
module Config = struct
  type t = {
    log_capacity : int;
    replicas : int;
    local_views : bool;
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

(* One-call introspection bundle; see onll.mli. *)
module Snapshot = struct
  type log = {
    log_name : string;
    live_bytes : int;
    used_bytes : int;
    entry_count : int;
    ops_per_entry : int list;
  }

  type t = {
    latest_available_idx : int;
    max_fuzzy_window : int;
    degraded : bool;
    logs : log list;
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
  val trace_nodes : t -> (int * bool * envelope option) list
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

  val reserve_seq : t -> int
  val stage_txn : t -> seq:int -> payload:string -> update_op -> staged
  val staged_idx : staged -> int
  val finish_txn : t -> staged -> value
  val inject_txn_run : t -> (op_id * update_op) list -> int list

  val recover_txn :
    t ->
    extra:(int * op_id * update_op) list ->
    Recovery_report.t * string list
end

(* The construction is generic in the trace implementation (see
   Trace_intf): [Make] uses the paper's lock-free trace, [Make_wait_free]
   the Kogan–Petrank-style wait-free one (§8). *)
module Make_generic
    (M : Onll_machine.Machine_sig.S)
    (T : Trace_intf.S)
    (S : Spec.S) :
  TXN_CAPABLE
    with type state = S.state
     and type update_op = S.update_op
     and type read_op = S.read_op
     and type value = S.value = struct
  module L = Onll_plog.Plog.Make (M)

  type state = S.state
  type update_op = S.update_op
  type read_op = S.read_op
  type value = S.value

  (* [e_txn]: when this operation is a sub-operation of a cross-shard
     transaction (E19, {!Onll_txn}) that has been staged but whose
     coordinator record is not yet known durable, it carries the encoded
     commit payload. Any process that persists such an envelope (helping,
     Listing 3) thereby makes the whole transaction durable: recovery
     treats a payload found in any log as a committed transaction. *)
  type envelope = {
    e_proc : int;
    e_seq : int;
    e_op : S.update_op;
    e_txn : string option;
  }

  let envelope_id e = { id_proc = e.e_proc; id_seq = e.e_seq }
  let envelope_op e = e.e_op

  module I = Istate.Make (M) (S)

  type istate = I.t = { st : S.state; floors : int array }

  let initial_istate = I.initial
  let apply_env is env = I.apply is ~proc:env.e_proc ~seq:env.e_seq env.e_op

  (* What goes into the persistent log. [Ops] is Listing 1's recordEntry:
     the helped envelopes, newest first, with contiguous execution indices
     descending from [exec_idx]. [Checkpoint] summarises the history up to
     [upto_idx] for compaction (§8). *)
  type record =
    | Ops of { exec_idx : int; envs : envelope list }
    | Checkpoint of { upto_idx : int; state : istate }

  let envelope_codec =
    let open Onll_util.Codec in
    map
      (fun ((e_proc, e_seq, e_op), e_txn) -> { e_proc; e_seq; e_op; e_txn })
      (fun { e_proc; e_seq; e_op; e_txn } -> ((e_proc, e_seq, e_op), e_txn))
      (pair (triple int int S.update_codec) (option string))

  let record_codec =
    let open Onll_util.Codec in
    let ops_c = pair int (list envelope_codec) in
    let ckpt_c = pair int I.codec in
    tagged
      (function
        | Ops { exec_idx; envs } -> (0, encode ops_c (exec_idx, envs))
        | Checkpoint { upto_idx; state } ->
            (1, encode ckpt_c (upto_idx, state)))
      (fun tag body ->
        match tag with
        | 0 ->
            let exec_idx, envs = decode ops_c body in
            Ops { exec_idx; envs }
        | 1 ->
            let upto_idx, state = decode ckpt_c body in
            Checkpoint { upto_idx; state }
        | n -> raise (Decode_error (Printf.sprintf "record: bad tag %d" n)))

  (* The drop key of an encoded record, read from its 24-byte header —
     the [tagged] frame (tag, body length) and the first field of the body,
     which is [exec_idx] for Ops and [upto_idx] for a Checkpoint. A
     checkpoint that summarises up to [upto] makes redundant every Ops
     record with [exec_idx <= upto] and every Checkpoint with
     [upto_idx < upto], so both keys are compared with [<= upto]. A
     malformed header keys to [max_int]: such an entry is never dropped. *)
  let record_key payload =
    let n = String.length payload in
    if n < 24 || Int64.to_int (String.get_int64_le payload 8) <> n - 16 then
      max_int
    else
      let idx = Int64.to_int (String.get_int64_le payload 16) in
      match Int64.to_int (String.get_int64_le payload 0) with
      | 0 -> idx
      | 1 when idx < max_int -> idx + 1
      | _ -> max_int

  type t = {
    mutable trace : (envelope, istate) T.t;
        (** replaced wholesale by recovery *)
    logs : L.t array;  (** per process; the durable state *)
    seqs : int array;  (** next per-process op sequence number; owner-only *)
    views : ((envelope, istate) T.node * istate) option array;
        (** per-process local view (§8): an available node and the state at
            it; owner-only *)
    prev_views : ((envelope, istate) T.node * istate) option array;
        (** the view each local view replaced when it moved to another
            node; owner-only. A checkpoint leaves the view at the newest
            node, and the prune after it needs the state one below. *)
    use_views : bool;
    mutable recovered : (op_id, int) Hashtbl.t;
        (** op id -> execution index, rebuilt by recovery *)
    mutable max_fuzzy : int;
        (** largest fuzzy window observed at any persist step (Prop 5.2
            says this never exceeds MAX-PROCESSES) *)
    mutable degraded : bool;
        (** sticky: recovery or scrub found durable data this object could
            not repair — it keeps serving, but with admitted loss *)
    ostats : Onll_obs.Opstats.t;
        (** per-operation fence attribution; inert without a sink *)
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
      views = Array.make M.max_processes None;
      prev_views = Array.make M.max_processes None;
      use_views = cfg.Config.local_views;
      recovered = Hashtbl.create 64;
      max_fuzzy = 0;
      degraded = false;
      ostats = Onll_obs.Opstats.make sink;
    }

  let sink t = Onll_obs.Opstats.sink t.ostats

  module A = Attribution.Make (M)

  let attributed t record f = A.attributed t.ostats record f

  (* State of the object at [node] (after applying node's operation), plus
     the return value of node's own operation if it contributed to the
     delta. Maintains the caller's local view when enabled. *)
  let compute t node =
    let p = M.self () in
    let floor = if t.use_views then t.views.(p) else None in
    let base, delta = T.delta_from ?floor t.trace node in
    let state, last_value =
      List.fold_left
        (fun (is, _) (_, env) ->
          let is', v = apply_env is env in
          (is', Some v))
        (base, None)
        delta
    in
    if t.use_views then begin
      (match t.views.(p) with
      | Some (n, _) as v when n != node -> t.prev_views.(p) <- v
      | Some _ | None -> ());
      t.views.(p) <- Some (node, state)
    end;
    (state, last_value)

  (* A state the calling process holds at or below [node]: its local
     view, else the view that one replaced. [None] when neither is at or
     below [node], or when the caller is not a registered process (a
     native domain that never registered, e.g. the main one reading the
     final state). *)
  let held_floor t node =
    match M.self () with
    | exception Failure _ -> None
    | p -> (
        let at_or_below = function
          | Some (n, _) as v when T.idx n <= T.idx node -> v
          | Some _ | None -> None
        in
        match at_or_below t.views.(p) with
        | Some _ as v -> v
        | None -> at_or_below t.prev_views.(p))

  (* State after [node] without moving local views (pruning and
     introspection). It folds from a state the caller already holds at or
     below [node], so a prune just below a checkpoint's node applies
     nothing. *)
  let istate_at t node =
    let floor = if t.use_views then held_floor t node else None in
    let base, delta = T.delta_from ?floor t.trace node in
    List.fold_left (fun is (_, env) -> fst (apply_env is env)) base delta

  (* Run [f] on process [p]'s log, turning the log's transient [Full]
     into the typed, terminal [Log_full]. *)
  let typed_full t p f =
    try f () with Onll_plog.Plog.Full -> raise (Log_full (L.name t.logs.(p)))

  (* Summarise the history up to the newest available operation into
     process [p]'s log and drop what that makes redundant, by
     [record_key] ([Plog.checkpoint]). The state comes from [compute]:
     with local views on, only the operations since the view are
     folded. *)
  let checkpoint_body t p ~worth =
    let node = T.latest_available t.trace in
    let upto = T.idx node in
    L.checkpoint t.logs.(p) ~upto ~worth (fun () ->
        Onll_util.Codec.encode record_codec
          (Checkpoint { upto_idx = upto; state = fst (compute t node) }))

  let prune t ~below =
    T.prune t.trace ~below ~state_before:(fun node -> istate_at t node)

  (* The one compaction: checkpoint, prune the trace below it, relocate.
     A concurrent compaction that pruned deeper first (unlinking the node
     at [upto]) had our goal, so the lost race is success; the wait-free
     trace cannot prune. *)
  let compact_body t p ~worth =
    Option.map
      (fun upto ->
        (try prune t ~below:upto
         with Invalid_argument _ | Trace_intf.Unsupported _ -> ());
        L.relocate t.logs.(p);
        upto)
      (checkpoint_body t p ~worth)

  let always _ = true

  (* Persist-stage append, compacting first when the log says so
     ([Plog.append_compacting]); the update pays that compaction's
     fences. *)
  let append_record t p payload =
    typed_full t p (fun () ->
        L.append_compacting t.logs.(p)
          ~compact:(fun ~worth -> ignore (compact_body t p ~worth))
          payload)

  (* Listing 3. *)
  let update_env_body t env =
    let node = T.insert t.trace env in
    let fuzzy = T.fuzzy_envs t.trace node in
    let fuzzy_len = List.length fuzzy in
    (* Prop 5.2 bounds the window by MAX-PROCESSES counting at most one
       in-flight operation per process; staged transaction sub-operations
       (E19) are exempt — one process may have several staged at once.
       Counted in one pass that allocates nothing. *)
    assert (
      List.fold_left
        (fun n e -> match e.e_txn with None -> n + 1 | Some _ -> n)
        0 fuzzy
      <= M.max_processes);
    if fuzzy_len > t.max_fuzzy then t.max_fuzzy <- fuzzy_len;
    if Onll_obs.Opstats.active t.ostats then begin
      Onll_obs.Opstats.observe_fuzzy t.ostats fuzzy_len;
      (* A window larger than 1 means this update persisted other
         processes' not-yet-available operations: helping. *)
      if fuzzy_len > 1 then
        Onll_obs.Sink.emit
          (Onll_obs.Opstats.sink t.ostats)
          ~proc:env.e_proc
          (Onll_obs.Event.Help { helped = fuzzy_len - 1 })
    end;
    let payload =
      Onll_util.Codec.encode record_codec
        (Ops { exec_idx = T.idx node; envs = fuzzy })
    in
    append_record t env.e_proc payload;
    T.set_available node;
    let _, value = compute t node in
    M.return_point ();
    match value with
    | Some v -> v
    | None -> assert false  (* node's own op is always in the delta *)

  let update_env t env =
    attributed t Onll_obs.Opstats.update_done (fun () ->
        update_env_body t env)

  let next_id t =
    let p = M.self () in
    let seq = t.seqs.(p) in
    t.seqs.(p) <- seq + 1;
    { id_proc = p; id_seq = seq }

  let update_with_id t op =
    let id = next_id t in
    let v =
      update_env t
        { e_proc = id.id_proc; e_seq = id.id_seq; e_op = op; e_txn = None }
    in
    (id, v)

  let update t op = snd (update_with_id t op)

  (* Detectable-execution entry point: the caller chooses the sequence
     number, so it can ask {!was_linearized} about this exact operation
     after a crash, even though the call itself never returned. *)
  let update_detectable t ~seq op =
    let p = M.self () in
    if seq < t.seqs.(p) then
      invalid_arg "Onll.update_detectable: sequence number reused";
    t.seqs.(p) <- seq + 1;
    update_env t { e_proc = p; e_seq = seq; e_op = op; e_txn = None }

  (* Listing 4. *)
  let read t rop =
    attributed t Onll_obs.Opstats.read_done (fun () ->
        let node = T.latest_available t.trace in
        let state, _ = compute t node in
        let v = S.read state.st rop in
        M.return_point ();
        v)

  (* {2 Recovery — Listing 5, hardened} *)

  (* The one recovery routine. [hardened] selects the log-level recovery
     (salvaging vs. silently truncating); the trace rebuild is tolerant in
     both cases — {!Adoption.run} adopts the longest contiguous prefix
     above the deepest checkpoint — and the report says exactly what could
     not be adopted. A CRC-valid entry whose payload nevertheless fails to
     decode (forged or astronomically unlucky bytes) is dropped and
     counted. The strict [recover] entry point turns a lossy report into
     [Recovery_corrupt]; the unhardened one discards it (the calibration
     baseline the chaos campaign must catch).

     [extra] (E19) is the committed-transaction oracle: sub-operations
     whose sole durable copy is a coordinator's commit record, keyed by
     the execution index assigned when they were staged. They join the
     adoption as non-resident entries, so a hole a shard log alone cannot
     account for (a staged sub-operation overwritten only in the
     coordinator region) is filled rather than reported as loss. Indices
     reachable only through the oracle that cannot be adopted in place
     are re-applied by the coordinator sweep ({!Onll_txn}).

     Also returns every transaction commit payload found riding in a
     logged envelope ([e_txn]) — the helper-committed transactions. *)
  let recover_core t ~hardened ~extra =
    (* Each log is salvaged and decoded before the next is read, so only
       one log's payloads are held at a time. *)
    let failures = ref 0 in
    let decode l =
      L.decode_recovered l record_codec ~failures ~checkpoint:(function
        | Checkpoint _ -> true
        | Ops _ -> false)
    in
    let salvage, by_log =
      if hardened then
        let rs =
          Array.map
            (fun l ->
              let r, payloads = L.recover l in
              ((L.name l, r), decode l payloads))
            t.logs
        in
        (Array.to_list (Array.map fst rs), Array.map snd rs)
      else begin
        Array.iter L.recover_unhardened t.logs;
        ([], Array.map (fun l -> decode l (L.entries l)) t.logs)
      end
    in
    let records = List.concat (Array.to_list by_log) in
    (* Best checkpoint = deepest summarised prefix. *)
    let base_idx, base_state =
      List.fold_left
        (fun ((bi, _) as best) r ->
          match r with
          | Checkpoint { upto_idx; state } when upto_idx > bi ->
              (upto_idx, state)
          | Checkpoint _ | Ops _ -> best)
        (0, initial_istate ())
        records
    in
    let entry idx env resident =
      { Adoption.idx; proc = env.e_proc; seq = env.e_seq; env; resident }
    in
    let logged =
      List.concat_map
        (function
          | Checkpoint _ -> []
          | Ops { exec_idx; envs } ->
              List.mapi (fun k env -> entry (exec_idx - k) env true) envs)
        records
    in
    (* Every transaction commit payload riding in a logged envelope,
       first sighting first. *)
    let txns = ref [] in
    let seen_txns = Hashtbl.create 8 in
    List.iter
      (fun { Adoption.env; _ } ->
        match env.e_txn with
        | Some p when not (Hashtbl.mem seen_txns p) ->
            Hashtbl.replace seen_txns p ();
            txns := p :: !txns
        | Some _ | None -> ())
      logged;
    let entries =
      List.fold_right
        (fun (idx, id, op) acc ->
          entry idx
            { e_proc = id.id_proc; e_seq = id.id_seq; e_op = op; e_txn = None }
            false
          :: acc)
        extra logged
    in
    let trace =
      T.create ~sink:(Onll_obs.Opstats.sink t.ostats) ~base_idx ~base_state ()
    in
    (* a table grows past two bindings per bucket, so half as many
       buckets as bindings take them all without a resize *)
    t.recovered <- Hashtbl.create (List.length logged / 2);
    let report, seqs =
      Adoption.run ~base_idx ~floors:base_state.floors entries
        ~adopt:(fun e ->
          let node = T.insert trace e.env in
          assert (T.idx node = e.idx);
          T.set_available node;
          Hashtbl.replace t.recovered
            { id_proc = e.proc; id_seq = e.seq }
            e.idx)
    in
    Array.blit seqs 0 t.seqs 0 M.max_processes;
    Array.fill t.views 0 (Array.length t.views) None;
    Array.fill t.prev_views 0 (Array.length t.prev_views) None;
    t.trace <- trace;
    if Onll_obs.Opstats.active t.ostats then
      Onll_obs.Sink.emit
        (Onll_obs.Opstats.sink t.ostats)
        ~proc:(M.self ())
        (Onll_obs.Event.Recovery { ops = report.recovered_ops });
    (* Only a relaxed-mode wrapper ({!Onll_relaxed}) knows which acked
       operations were still unfenced at the crash; the core cannot
       distinguish a lost unfenced suffix from operations that were
       simply never invoked, so it reports none. *)
    let report = { report with decode_failures = !failures; salvage } in
    (* The degraded-mode policy: detected loss never stops the object, but
       it is admitted, stickily, until the object is rebuilt. *)
    if hardened && Recovery_report.detected_loss report then
      t.degraded <- true;
    (* Dropped operations must leave the logs before the next update
       reuses their indices, or a later recovery adopts them back or keeps
       them over it. A log holds its records in index order, so they are
       its suffix. *)
    if hardened && report.dropped <> [] then begin
      let upto = base_idx + report.recovered_ops in
      Array.iter
        (fun l ->
          L.truncate l ~from:(fun p ->
              match Onll_util.Codec.decode record_codec p with
              | Ops { exec_idx; _ } -> exec_idx > upto
              | Checkpoint _ | (exception _) -> false))
        t.logs
    end;
    (report, List.rev !txns)

  let recover_txn t ~extra = recover_core t ~hardened:true ~extra
  let recover_report t = fst (recover_core t ~hardened:true ~extra:[])

  let recover t = Recovery_report.check (recover_report t)

  let recover_unhardened t =
    ignore (recover_core t ~hardened:false ~extra:[])

  (* Online self-healing (cooperative step): CRC-walk every process's log
     across its replicas, repairing divergence in place and quarantining
     double-fault spans. Fences are attributed to ["fences.scrub"], never
     to the per-update Theorem 5.1 accounting. *)
  let scrub t =
    attributed t Onll_obs.Opstats.scrub_done (fun () ->
        let r =
          Array.fold_left
            (fun acc l -> Onll_plog.Plog.add_scrub acc (L.scrub l))
            Onll_plog.Plog.clean_scrub t.logs
        in
        if r.Onll_plog.Plog.unrepairable_spans > 0 then t.degraded <- true;
        r)

  let degraded t = t.degraded

  (* {2 Detectable execution} *)

  let recovered_ops t =
    Hashtbl.fold (fun id idx acc -> (id, idx) :: acc) t.recovered []
    |> List.sort (fun (_, a) (_, b) -> compare a b)

  let was_linearized t id =
    Hashtbl.mem t.recovered id
    || (let _, base = T.base_of t.trace in
        id.id_seq < base.floors.(id.id_proc))
    || List.exists
         (fun (_, _, env) ->
           match env with
           | Some e -> e.e_proc = id.id_proc && e.e_seq = id.id_seq
           | None -> false)
         (T.to_list t.trace)

  (* {2 E19: cross-shard transaction support ({!Onll_txn})}

     The order/persist/linearize split of a single update, exposed so a
     coordinator can run each stage across several shard objects:
     [stage_txn] orders a sub-operation (insert, not yet available, no
     durable write), the coordinator then persists the whole transaction
     with one fence in its own region, and [finish_txn] linearizes each
     staged node. [inject_txn_run] is the recovery-side idempotent
     re-apply for committed sub-operations no log or oracle could place. *)

  type staged = { st_node : (envelope, istate) T.node }

  (* Allocate the next per-process sequence number without running an
     update: the coordinator fixes every sub-operation's identity before
     encoding the commit payload that embeds them. The number counts as
     used — [update_detectable] will refuse it — exactly as if an update
     had consumed it. *)
  let reserve_seq t =
    let p = M.self () in
    let seq = t.seqs.(p) in
    t.seqs.(p) <- seq + 1;
    seq

  let stage_txn t ~seq ~payload op =
    let p = M.self () in
    if seq >= t.seqs.(p) then
      invalid_arg "Onll.stage_txn: sequence number was not reserved";
    {
      st_node =
        T.insert t.trace
          { e_proc = p; e_seq = seq; e_op = op; e_txn = Some payload };
    }

  let staged_idx s = T.idx s.st_node

  let finish_txn t s =
    T.set_available s.st_node;
    let _, value = compute t s.st_node in
    match value with
    | Some v -> v
    | None -> assert false (* the staged node's own op is in the delta *)

  (* Insert, linearize and durably log a run of committed sub-operations
     during the coordinator sweep. One fenced Ops append covers the whole
     run (the inserts are back-to-back under one process, so the indices
     are contiguous as the record format requires); afterwards the
     operations are ordinary log residents and the next recovery adopts
     them without the oracle. The payload tag is dropped — the
     transaction is already known committed. *)
  let inject_txn_run t subs =
    match subs with
    | [] -> []
    | _ ->
        let envs_idx =
          List.map
            (fun (id, op) ->
              let env =
                {
                  e_proc = id.id_proc;
                  e_seq = id.id_seq;
                  e_op = op;
                  e_txn = None;
                }
              in
              let node = T.insert t.trace env in
              T.set_available node;
              if id.id_seq >= t.seqs.(id.id_proc) then
                t.seqs.(id.id_proc) <- id.id_seq + 1;
              Hashtbl.replace t.recovered id (T.idx node);
              (env, T.idx node))
            subs
        in
        let newest_first = List.rev envs_idx in
        let exec_idx = snd (List.hd newest_first) in
        let payload =
          Onll_util.Codec.encode record_codec
            (Ops { exec_idx; envs = List.map fst newest_first })
        in
        append_record t (M.self ()) payload;
        List.map snd envs_idx

  (* {2 §8: checkpointing, log compaction, trace pruning} *)

  (* Costs one persistent fence for the appended checkpoint and one for the
     durable head update (plus relocation fences only when the log was
     full). Returns the summarised index. *)
  let checkpoint t =
    let p = M.self () in
    attributed t Onll_obs.Opstats.checkpoint_done (fun () ->
        typed_full t p (fun () -> Option.get (checkpoint_body t p ~worth:always)))

  let compact t =
    let p = M.self () in
    attributed t Onll_obs.Opstats.checkpoint_done (fun () ->
        typed_full t p (fun () -> Option.get (compact_body t p ~worth:always)))

  (* {2 Introspection (tests, figures, reports)} *)

  let trace_nodes t = T.to_list t.trace

  let trace_base t =
    let i, is = T.base_of t.trace in
    (i, is.st)

  let current_state t = (istate_at t (T.latest_available t.trace)).st

  (* One durable scan per log: entries are decoded once and every derived
     statistic (counts, sizes, helping profile) comes from that pass. An
     entry that does not decode counts 0 operations, as recovery adopted
     none from it. *)
  let snapshot t =
    let logs =
      Array.to_list t.logs
      |> List.map (fun l ->
             let ops_per_entry =
               List.map
                 (fun e ->
                   match Onll_util.Codec.decode record_codec e with
                   | Ops { envs; _ } -> List.length envs
                   | Checkpoint _ | (exception _) -> 0)
                 (L.entries l)
             in
             {
               Snapshot.log_name = L.name l;
               live_bytes = L.live_bytes l;
               used_bytes = L.used_bytes l;
               entry_count = List.length ops_per_entry;
               ops_per_entry;
             })
    in
    {
      Snapshot.latest_available_idx = T.idx (T.latest_available t.trace);
      max_fuzzy_window = t.max_fuzzy;
      degraded = t.degraded;
      logs;
    }

  (* From the logs' in-memory accounts: no durable load. *)
  let log_fill t =
    Array.fold_left
      (fun acc l ->
        Float.max acc
          (float_of_int (L.live_bytes l) /. float_of_int (L.capacity l)))
      0. t.logs
end

(** The paper's construction: ONLL over the lock-free Listing 2 trace. *)
module Make (M : Onll_machine.Machine_sig.S) (S : Spec.S) =
  Make_generic (M) (Trace_adapter.Backward (M)) (S)

(** §8 extension: the same construction over the wait-free trace. Pruning
    is unsupported on this variant (see {!Wf_trace}). *)
module Make_wait_free (M : Onll_machine.Machine_sig.S) (S : Spec.S) =
  Make_generic (M) (Wf_trace.Make (M)) (S)
