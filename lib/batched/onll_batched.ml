(** Group-commit ONLL (see onll_batched.mli). *)

open Onll_core

module Make (M : Onll_machine.Machine_sig.S) (S : Spec.S) = struct
  module Lock = Onll_machine.Spinlock.Make (M)

  type state = S.state
  type update_op = S.update_op
  type read_op = S.read_op
  type value = S.value

  (* The core construction's envelope and record formats, recovery routine
     and detectability rule: one [Ops] record per batch, newest first. *)
  include Onll_core.Record_log.Make (M) (S)

  type slot =
    | Empty
    | Req of envelope * string
        (** announced, not yet durable; the submitter pre-encodes its
            envelope so the serialisation work runs in parallel and the
            leader's critical section is a concatenation *)
    | Done of { d_seq : int; d_value : S.value }
        (** result for the announcer's operation [d_seq]; published only
            after the batch's fence *)

  type t = {
    lock : Lock.t;  (** leader election *)
    slots : slot M.Tvar.t array;  (** per-process announce slots *)
    log : L.t;  (** ONE shared log for all processes *)
    mirror : istate M.Tvar.t;
        (** state at the durable watermark; published only after a batch's
            fence, so readers never observe unfenced updates *)
    durable : int M.Tvar.t;
        (** watermark: highest execution index whose batch fence completed *)
    seqs : int array;  (** next per-process sequence number; owner-only *)
    mutable next_idx : int;  (** next execution index; owned by the leader *)
    mutable base : int * istate;  (** deepest materialised point *)
    mutable hist : (int * envelope) list;
        (** applied envelopes above [base], newest first; leader-owned *)
    applied : (Onll.op_id, int) Hashtbl.t;
        (** id -> execution index for every durable operation above the
            base floors; leader-owned writes *)
    mutable recovered : Record_log.Recovered.t;
        (** rebuilt by recovery *)
    mutable batches : int;  (** batch fences paid since build/recovery *)
    mutable batched_ops : int;  (** updates those fences covered *)
    mutable max_occupancy : int;  (** largest batch observed *)
    mutable degraded : bool;  (** sticky admitted-loss flag *)
    ostats : Onll_obs.Opstats.t;
    c_batch_fences : Onll_obs.Metrics.counter;  (** ["fences.batched"] *)
    h_occupancy : Onll_obs.Metrics.histogram;  (** ["batch.occupancy"] *)
  }

  let instances = ref 0

  let make (cfg : Onll.Config.t) =
    let n = !instances in
    incr instances;
    let sink = cfg.Onll.Config.sink in
    let registry = Onll_obs.Sink.registry sink in
    {
      lock = Lock.make ();
      slots = Array.init M.max_processes (fun _ -> M.Tvar.make Empty);
      log =
        L.create ~sink ~replicas:cfg.Onll.Config.replicas ~key:record_key
          ~name:
            (Printf.sprintf "%s%s.%d.gc.plog" S.name
               cfg.Onll.Config.region_suffix n)
          ~capacity:cfg.Onll.Config.log_capacity ();
      mirror = M.Tvar.make (initial_istate ());
      durable = M.Tvar.make 0;
      seqs = Array.make M.max_processes 0;
      next_idx = 1;
      base = (0, initial_istate ());
      hist = [];
      applied = Hashtbl.create 64;
      recovered = Record_log.Recovered.create 0;
      batches = 0;
      batched_ops = 0;
      max_occupancy = 0;
      degraded = false;
      ostats = Onll_obs.Opstats.make sink;
      c_batch_fences = Onll_obs.Metrics.counter registry "fences.batched";
      h_occupancy = Onll_obs.Metrics.histogram registry "batch.occupancy";
    }

  let sink t = Onll_obs.Opstats.sink t.ostats

  module A = Attribution.Make (M)

  let attributed t record f = A.attributed t.ostats record f

  (* {2 Checkpointing and compaction (must hold the lock)} *)

  (* Summarise everything up to the durable watermark, from the mirror,
     and drop what that covers ([Plog.checkpoint]). *)
  let checkpoint_body t ~worth =
    checkpoint_log t.log ~upto:(M.Tvar.get t.durable) ~worth (fun () ->
        M.Tvar.get t.mirror)

  (* Forget the operations below [below]: fold them into the base and
     drop their detectability entries, which the base's floors answer
     from then on. *)
  let prune_body t ~below =
    if below > M.Tvar.get t.durable then
      invalid_arg "Onll_batched.prune: no durable operation at index";
    let keep, gone = List.partition (fun (idx, _) -> idx >= below) t.hist in
    if gone <> [] then begin
      let base =
        List.fold_left
          (fun is (_, env) ->
            Hashtbl.remove t.applied (envelope_id env);
            fst (apply_env is env))
          (snd t.base) (List.rev gone)
      in
      t.base <- (below - 1, base);
      t.hist <- keep
    end

  let compact_body t ~worth =
    Option.map
      (fun upto ->
        prune_body t ~below:upto;
        L.relocate t.log;
        upto)
      (checkpoint_body t ~worth)

  (* Compacting first when the log says so ([Plog.append_compacting]).
     [exec_idx] is the record's drop key ([record_key]). *)
  let append_record t ~exec_idx payload =
    typed_full t.log (fun () ->
        L.append_compacting ~key:exec_idx t.log
          ~compact:(fun ~worth -> ignore (compact_body t ~worth))
          payload)

  (* {2 The group commit (must hold the lock)} *)

  let combine t ~proc =
    let requests = ref [] in
    Array.iter
      (fun slot ->
        match M.Tvar.get slot with
        | Req (env, bytes) -> requests := (env, bytes) :: !requests
        | Empty | Done _ -> ())
      t.slots;
    if !requests <> [] then begin
      let k = List.length !requests in
      let start_idx = t.next_idx in
      (* the batch in slot order takes indices ascending from [start_idx];
         its record lists them newest first *)
      let exec_idx = start_idx + k - 1 in
      let payload = encode_ops ~exec_idx (List.map snd !requests) in
      (* One persistent fence covers the whole batch (and, with replicated
         logs, every replica's copy of it — Plog drains them together). *)
      append_record t ~exec_idx payload;
      t.batches <- t.batches + 1;
      t.batched_ops <- t.batched_ops + k;
      if k > t.max_occupancy then t.max_occupancy <- k;
      if Onll_obs.Opstats.active t.ostats then begin
        Onll_obs.Metrics.incr t.c_batch_fences;
        Onll_obs.Metrics.observe t.h_occupancy k;
        if k > 1 then
          Onll_obs.Sink.emit
            (Onll_obs.Opstats.sink t.ostats)
            ~proc
            (Onll_obs.Event.Help { helped = k - 1 })
      end;
      t.next_idx <- start_idx + k;
      (* The batch is durable: advance the watermark, apply, publish. A
         waiter observing its Done therefore knows its update's fence
         completed — it never acknowledges an unfenced update. The floors
         array is copied once per batch, not once per operation. *)
      let base_is = M.Tvar.get t.mirror in
      let floors = Array.copy base_is.floors in
      let st = ref base_is.st in
      let results, _ =
        List.fold_left
          (fun (acc, idx) (env, _) ->
            let st', v = S.apply !st env.e_op in
            st := st';
            if env.e_seq >= floors.(env.e_proc) then
              floors.(env.e_proc) <- env.e_seq + 1;
            Hashtbl.replace t.applied (envelope_id env) idx;
            t.hist <- (idx, env) :: t.hist;
            ((env, v) :: acc, idx + 1))
          ([], start_idx) (List.rev !requests)
      in
      M.Tvar.set t.durable (start_idx + k - 1);
      M.Tvar.set t.mirror { base_is with st = !st; floors };
      List.iter
        (fun (env, v) ->
          M.Tvar.set t.slots.(env.e_proc)
            (Done { d_seq = env.e_seq; d_value = v }))
        (List.rev results)
    end

  (* {2 Operations} *)

  let update_env t env =
    attributed t Onll_obs.Opstats.update_done (fun () ->
        let p = env.e_proc in
        let bytes = Onll_util.Codec.encode envelope_codec env in
        M.Tvar.set t.slots.(p) (Req (env, bytes));
        (* Combining window: let concurrent submitters announce before
           anyone pays the batch's fence. Solo (and on the adversarial
           single-process schedule) the yield returns immediately and the
           batch degenerates to one update — exactly 1 pf, the Thm 6.3
           floor. *)
        M.yield ();
        let rec wait () =
          match M.Tvar.get t.slots.(p) with
          | Done { d_seq; d_value } when d_seq = env.e_seq ->
              M.Tvar.set t.slots.(p) Empty;
              d_value
          | Done _ | Empty | Req _ ->
              if Lock.try_acquire t.lock then begin
                Lock.held t.lock (fun () -> combine t ~proc:p);
                wait ()
              end
              else begin
                (* the lock holder is combining on our behalf (or about
                   to); surrender the timeslice it may need *)
                M.yield ();
                wait ()
              end
        in
        let v = wait () in
        M.return_point ();
        v)

  let update_with_id t op =
    let id = next_id t.seqs in
    (id, update_env t (envelope id op))

  let update t op = snd (update_with_id t op)

  let update_detectable t ~seq op =
    update_env t
      (envelope (claim_id t.seqs ~who:"Onll_batched.update_detectable" ~seq) op)

  let read t rop =
    attributed t Onll_obs.Opstats.read_done (fun () ->
        let v = S.read (M.Tvar.get t.mirror).st rop in
        M.return_point ();
        v)

  (* {2 Recovery} *)

  (* Through the core construction's recovery routine
     ({!Onll_core.Record_log.Make.recover_logs}): the mirror restarts at
     the deepest checkpoint and folds every adopted batch above it. A batch
     whose fence did not complete is a torn tail record: its CRC frame
     fails as a whole, so the batch vanishes all-or-nothing — no operation
     of it was ever acknowledged, so nothing acknowledged is lost. *)
  let recover_core t ~hardened =
    let state = ref (initial_istate ()) in
    let r =
      recover_logs [| t.log |] ~sink:(sink t) ~hardened ~extra:[]
        ~reset:(fun base_idx base_state ->
          t.base <- (base_idx, base_state);
          t.hist <- [];
          state := base_state;
          Hashtbl.reset t.applied)
        ~adopt:(fun { idx; env; _ } ->
          state := fst (apply_env !state env);
          t.hist <- (idx, env) :: t.hist;
          Hashtbl.replace t.applied (envelope_id env) idx)
        ~seqs:t.seqs
        ~degraded:(fun () -> t.degraded <- true)
    in
    let upto = fst t.base + r.report.recovered_ops in
    t.recovered <- r.recovered;
    t.next_idx <- upto + 1;
    M.Tvar.set t.mirror !state;
    M.Tvar.set t.durable upto;
    Lock.release t.lock;
    Array.iter (fun s -> M.Tvar.set s Empty) t.slots;
    t.batches <- 0;
    t.batched_ops <- 0;
    r.report

  let recover_report t = recover_core t ~hardened:true

  let recover t = Onll.Recovery_report.check (recover_report t)

  let recover_unhardened t = ignore (recover_core t ~hardened:false)

  let scrub t =
    attributed t Onll_obs.Opstats.scrub_done (fun () ->
        scrub_logs [| t.log |] ~degraded:(fun () -> t.degraded <- true))

  let degraded t = t.degraded

  (* {2 Detectable execution} *)

  let recovered_ops t = Record_log.Recovered.by_index t.recovered

  let was_linearized t id =
    linearized ~mem:(Hashtbl.mem t.applied) id ~base:(fun () -> snd t.base)

  (* {2 §8: checkpointing and compaction} *)

  let checkpoint t =
    attributed t Onll_obs.Opstats.checkpoint_done (fun () ->
        Lock.with_lock t.lock (fun () ->
            forced t.log (checkpoint_body t)))

  let compact t =
    attributed t Onll_obs.Opstats.checkpoint_done (fun () ->
        Lock.with_lock t.lock (fun () ->
            forced t.log (compact_body t)))

  let prune t ~below = Lock.with_lock t.lock (fun () -> prune_body t ~below)

  (* {2 Introspection} *)

  let trace_nodes t =
    let base_idx, _ = t.base in
    (base_idx, true, None)
    :: List.rev_map (fun (idx, env) -> (idx, true, Some env)) t.hist

  let trace_base t =
    let i, is = t.base in
    (i, is.st)

  let current_state t = (M.Tvar.get t.mirror).st

  let snapshot t =
    {
      Onll.Snapshot.latest_available_idx = M.Tvar.get t.durable;
      max_fuzzy_window = t.max_occupancy;
      degraded = t.degraded;
      logs = [ snapshot_log t.log ];
    }

  let log_fill t = fill [| t.log |]
  let batch_stats t = (t.batches, t.batched_ops)
  let durable_watermark t = M.Tvar.get t.durable
end
