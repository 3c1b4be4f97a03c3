(** Group-commit ONLL (see onll_batched.mli). *)

open Onll_core

module Make (M : Onll_machine.Machine_sig.S) (S : Spec.S) = struct
  module L = Onll_plog.Plog.Make (M)
  module Lock = Onll_machine.Spinlock.Make (M)

  type state = S.state
  type update_op = S.update_op
  type read_op = S.read_op
  type value = S.value

  type envelope = { e_proc : int; e_seq : int; e_op : S.update_op }

  let envelope_id e = { Onll.id_proc = e.e_proc; id_seq = e.e_seq }
  let envelope_op e = e.e_op

  (* Materialised state with per-process sequence floors, exactly as the
     core construction: floors keep detectability across compaction. *)
  module I = Onll_core.Istate.Make (M) (S)

  type istate = I.t = { st : S.state; floors : int array }

  let initial_istate = I.initial
  let apply_env is env = I.apply is ~proc:env.e_proc ~seq:env.e_seq env.e_op

  (* The shared log's records. [Batch] is the group commit: envelopes in
     linearization order, with contiguous execution indices ascending from
     [start_idx]. One CRC frame per batch makes a torn batch
     all-or-nothing on recovery. *)
  type record =
    | Batch of { start_idx : int; envs : envelope list }
    | Checkpoint of { upto_idx : int; state : istate }

  let envelope_codec =
    let open Onll_util.Codec in
    map
      (fun (e_proc, e_seq, e_op) -> { e_proc; e_seq; e_op })
      (fun { e_proc; e_seq; e_op } -> (e_proc, e_seq, e_op))
      (triple int int S.update_codec)

  let record_codec =
    let open Onll_util.Codec in
    let batch_c = pair int (list envelope_codec) in
    let ckpt_c = pair int I.codec in
    tagged
      (function
        | Batch { start_idx; envs } -> (0, encode batch_c (start_idx, envs))
        | Checkpoint { upto_idx; state } ->
            (1, encode ckpt_c (upto_idx, state)))
      (fun tag body ->
        match tag with
        | 0 ->
            let start_idx, envs = decode batch_c body in
            Batch { start_idx; envs }
        | 1 ->
            let upto_idx, state = decode ckpt_c body in
            Checkpoint { upto_idx; state }
        | n -> raise (Decode_error (Printf.sprintf "record: bad tag %d" n)))

  (* The drop key of an encoded record, read from its header as core's
     [record_key] does — the [tagged] frame (tag, body length), then the
     body's leading fields: a batch's last execution index ([start_idx]
     plus the envelope count, minus one), a checkpoint's [upto_idx + 1].
     A checkpoint at [upto] makes redundant every record whose key is
     [<= upto], and keys are non-decreasing along the log. No envelope is
     decoded, so a batch whose envelopes do not decode is dropped like any
     other; only a malformed header keys to [max_int]. *)
  let record_key payload =
    let n = String.length payload in
    let field off = Int64.to_int (String.get_int64_le payload off) in
    if n < 24 || field 8 <> n - 16 then max_int
    else
      match field 0 with
      | 0 when n >= 32 -> field 16 + field 24 - 1
      | 1 when field 16 < max_int -> field 16 + 1
      | _ -> max_int

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
    recovered : (Onll.op_id, int) Hashtbl.t;  (** rebuilt by recovery *)
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
      recovered = Hashtbl.create 64;
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

  let typed_full t f =
    try f () with Onll_plog.Plog.Full -> raise (Onll.Log_full (L.name t.log))

  (* {2 Checkpointing and compaction (must hold the lock)} *)

  (* Summarise everything up to the durable watermark, from the mirror,
     and drop what that covers ([Plog.checkpoint]). *)
  let checkpoint_body t ~worth =
    let upto = M.Tvar.get t.durable in
    L.checkpoint t.log ~upto ~worth (fun () ->
        Onll_util.Codec.encode record_codec
          (Checkpoint { upto_idx = upto; state = M.Tvar.get t.mirror }))

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

  let always _ = true

  (* Compacting first when the log says so ([Plog.append_compacting]). *)
  let append_record t payload =
    typed_full t (fun () ->
        L.append_compacting t.log
          ~compact:(fun ~worth -> ignore (compact_body t ~worth))
          payload)

  (* {2 The group commit (must hold the lock)} *)

  (* Assemble a [Batch] record from the submitters' pre-encoded envelopes
     — byte-identical to [encode record_codec (Batch { start_idx; envs })]
     ([tagged] frames the body as an [int] tag plus a length-prefixed
     [string]; the body is [pair int (list envelope_codec)]), but the
     leader's share of the serialisation is a concatenation. *)
  let encode_batch ~start_idx pre =
    let count, body_len =
      List.fold_left
        (fun (n, l) s -> (n + 1, l + String.length s))
        (0, 16) pre
    in
    let b = Buffer.create (body_len + 16) in
    Buffer.add_int64_le b 0L (* tag: Batch *);
    Buffer.add_int64_le b (Int64.of_int body_len);
    Buffer.add_int64_le b (Int64.of_int start_idx);
    Buffer.add_int64_le b (Int64.of_int count);
    List.iter (Buffer.add_string b) pre;
    Buffer.contents b

  let combine t ~proc =
    let requests = ref [] in
    Array.iter
      (fun slot ->
        match M.Tvar.get slot with
        | Req (env, bytes) -> requests := (env, bytes) :: !requests
        | Empty | Done _ -> ())
      t.slots;
    let envs = List.rev !requests in
    if envs <> [] then begin
      let k = List.length envs in
      let start_idx = t.next_idx in
      let payload = encode_batch ~start_idx (List.map snd envs) in
      (* One persistent fence covers the whole batch (and, with replicated
         logs, every replica's copy of it — Plog drains them together). *)
      append_record t payload;
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
          ([], start_idx) envs
      in
      M.Tvar.set t.durable (start_idx + k - 1);
      M.Tvar.set t.mirror { st = !st; floors };
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

  let next_id t =
    let p = M.self () in
    let seq = t.seqs.(p) in
    t.seqs.(p) <- seq + 1;
    { Onll.id_proc = p; id_seq = seq }

  let update_with_id t op =
    let id = next_id t in
    let v =
      update_env t
        { e_proc = id.Onll.id_proc; e_seq = id.Onll.id_seq; e_op = op }
    in
    (id, v)

  let update t op = snd (update_with_id t op)

  let update_detectable t ~seq op =
    let p = M.self () in
    if seq < t.seqs.(p) then
      invalid_arg "Onll_batched.update_detectable: sequence number reused";
    t.seqs.(p) <- seq + 1;
    update_env t { e_proc = p; e_seq = seq; e_op = op }

  let read t rop =
    attributed t Onll_obs.Opstats.read_done (fun () ->
        let v = S.read (M.Tvar.get t.mirror).st rop in
        M.return_point ();
        v)

  (* {2 Recovery} *)

  (* One routine, mirroring the core construction: salvage the shared log,
     adopt the deepest checkpoint plus the longest contiguous run of
     batches above it ({!Onll.Adoption.run}), report everything that could
     not be adopted. A batch whose fence did not complete is a torn tail
     record: its CRC frame fails as a whole, so the batch vanishes
     all-or-nothing — no operation of it was ever acknowledged, so nothing
     acknowledged is lost. *)
  let recover_core t ~hardened =
    let salvage, payloads =
      if hardened then
        let r, payloads = L.recover t.log in
        ([ (L.name t.log, r) ], payloads)
      else begin
        L.recover_unhardened t.log;
        ([], L.entries t.log)
      end
    in
    let failures = ref 0 in
    let records =
      L.decode_recovered t.log record_codec ~failures payloads
        ~checkpoint:(function Checkpoint _ -> true | Batch _ -> false)
    in
    let base_idx, base_state =
      List.fold_left
        (fun ((bi, _) as best) r ->
          match r with
          | Checkpoint { upto_idx; state } when upto_idx > bi ->
              (upto_idx, state)
          | Checkpoint _ | Batch _ -> best)
        (0, initial_istate ())
        records
    in
    let entries =
      List.concat_map
        (function
          | Checkpoint _ -> []
          | Batch { start_idx; envs } ->
              List.mapi
                (fun k env ->
                  {
                    Onll.Adoption.idx = start_idx + k;
                    proc = env.e_proc;
                    seq = env.e_seq;
                    env;
                    resident = true;
                  })
                envs)
        records
    in
    Hashtbl.reset t.recovered;
    Hashtbl.reset t.applied;
    let state = ref base_state and hist = ref [] in
    let report, seqs =
      Onll.Adoption.run ~base_idx ~floors:base_state.floors entries
        ~adopt:(fun { idx; env; _ } ->
          state := fst (apply_env !state env);
          hist := (idx, env) :: !hist;
          Hashtbl.replace t.applied (envelope_id env) idx;
          Hashtbl.replace t.recovered (envelope_id env) idx)
    in
    let upto = base_idx + report.recovered_ops in
    Array.blit seqs 0 t.seqs 0 M.max_processes;
    t.base <- (base_idx, base_state);
    t.hist <- !hist;
    t.next_idx <- upto + 1;
    M.Tvar.set t.mirror !state;
    M.Tvar.set t.durable upto;
    Lock.release t.lock;
    Array.iter (fun s -> M.Tvar.set s Empty) t.slots;
    t.batches <- 0;
    t.batched_ops <- 0;
    if Onll_obs.Opstats.active t.ostats then
      Onll_obs.Sink.emit
        (Onll_obs.Opstats.sink t.ostats)
        ~proc:(M.self ())
        (Onll_obs.Event.Recovery { ops = report.recovered_ops });
    let report = { report with decode_failures = !failures; salvage } in
    if hardened && Onll.Recovery_report.detected_loss report then
      t.degraded <- true;
    (* as the core construction: stranded batches leave the log *)
    if hardened && report.dropped <> [] then
      L.truncate t.log ~from:(fun p ->
          match Onll_util.Codec.decode record_codec p with
          | Batch { start_idx; _ } -> start_idx > upto
          | Checkpoint _ | (exception _) -> false);
    report

  let recover_report t = recover_core t ~hardened:true

  let recover t = Onll.Recovery_report.check (recover_report t)

  let recover_unhardened t = ignore (recover_core t ~hardened:false)

  let scrub t =
    attributed t Onll_obs.Opstats.scrub_done (fun () ->
        let r = L.scrub t.log in
        if r.Onll_plog.Plog.unrepairable_spans > 0 then t.degraded <- true;
        r)

  let degraded t = t.degraded

  (* {2 Detectable execution} *)

  let recovered_ops t =
    Hashtbl.fold (fun id idx acc -> (id, idx) :: acc) t.recovered []
    |> List.sort (fun (_, a) (_, b) -> compare a b)

  let was_linearized t id =
    Hashtbl.mem t.applied id
    ||
    let _, base = t.base in
    id.Onll.id_seq < base.floors.(id.Onll.id_proc)

  (* {2 §8: checkpointing and compaction} *)

  let checkpoint t =
    attributed t Onll_obs.Opstats.checkpoint_done (fun () ->
        Lock.with_lock t.lock (fun () ->
            typed_full t (fun () -> Option.get (checkpoint_body t ~worth:always))))

  let compact t =
    attributed t Onll_obs.Opstats.checkpoint_done (fun () ->
        Lock.with_lock t.lock (fun () ->
            typed_full t (fun () -> Option.get (compact_body t ~worth:always))))

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
    let ops_per_entry =
      List.map
        (fun e ->
          match Onll_util.Codec.decode record_codec e with
          | Batch { envs; _ } -> List.length envs
          | Checkpoint _ | (exception _) -> 0)
        (L.entries t.log)
    in
    {
      Onll.Snapshot.latest_available_idx = M.Tvar.get t.durable;
      max_fuzzy_window = t.max_occupancy;
      degraded = t.degraded;
      logs =
        [
          {
            Onll.Snapshot.log_name = L.name t.log;
            live_bytes = L.live_bytes t.log;
            used_bytes = L.used_bytes t.log;
            entry_count = List.length ops_per_entry;
            ops_per_entry;
          };
        ];
    }

  let log_fill t =
    float_of_int (L.live_bytes t.log) /. float_of_int (L.capacity t.log)

  let batch_stats t = (t.batches, t.batched_ops)
  let durable_watermark t = M.Tvar.get t.durable
end
