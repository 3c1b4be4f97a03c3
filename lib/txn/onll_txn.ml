(** Cross-shard atomic transactions (E19); see onll_txn.mli. *)

module Onll = Onll_core.Onll
module Metrics = Onll_obs.Metrics
module Report = Onll.Recovery_report

type txn_id = { txn_proc : int; txn_seq : int }

let pp_txn_id ppf { txn_proc; txn_seq } =
  Format.fprintf ppf "t%d#%d" txn_proc txn_seq

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) = struct
  (* The per-shard construction at its full TXN_CAPABLE surface: the
     [with module Shard = C] equality below is what lets this layer call
     the staging/oracle extensions on [Sh.shard t i]. *)
  module C = Onll.Make (M) (S)
  module Sh = Onll_sharded.Make_over (M) (S) (C)
  module L = Onll_plog.Plog.Make (M)
  module A = Onll_core.Attribution.Make (M)

  (* {2 The commit record}

     One CRC-framed entry in the coordinator's log: the transaction id
     plus every sub-operation with its shard, per-shard identity and the
     execution index it was staged at. The staged payload carried by
     in-trace envelopes is the same encoding with indices -1 (unknown at
     staging time); recovery never needs indices from helper-carried
     payloads — helper-committed sub-operations are log-resident. *)

  type sub = {
    c_shard : int;
    c_proc : int;
    c_seq : int;
    c_idx : int;
    c_op : S.update_op;
  }

  type commit = { cm_proc : int; cm_seq : int; cm_subs : sub list }

  let sub_codec =
    let open Onll_util.Codec in
    map
      (fun ((c_shard, c_proc, c_seq), (c_idx, c_op)) ->
        { c_shard; c_proc; c_seq; c_idx; c_op })
      (fun { c_shard; c_proc; c_seq; c_idx; c_op } ->
        ((c_shard, c_proc, c_seq), (c_idx, c_op)))
      (pair (triple int int int) (pair int S.update_codec))

  let commit_codec =
    let open Onll_util.Codec in
    map
      (fun ((cm_proc, cm_seq), cm_subs) -> { cm_proc; cm_seq; cm_subs })
      (fun { cm_proc; cm_seq; cm_subs } -> ((cm_proc, cm_seq), cm_subs))
      (pair (pair int int) (list sub_codec))

  type t = {
    sh : Sh.t;
    n : int;
    coord : L.t array;  (** per process; the transaction durability point *)
    txn_seqs : int array;  (** next per-process txn sequence; owner-only *)
    committed : (txn_id, sub list) Hashtbl.t;
        (** txn id -> sub-operations; live submissions plus whatever the
            last recovery rebuilt — the {!txn_was_committed} answer *)
    applied : (txn_id, (int * int) list) Hashtbl.t;
        (** txn id -> (shard, execution index) per sub (-1 = covered by a
            checkpoint); what coordinator truncation checks against *)
    mutable c_degraded : bool;
        (** sticky: a coordinator log quarantined commit records *)
    ostats : Onll_obs.Opstats.t;
    c_fast : Metrics.counter;
    c_committed : Metrics.counter;
    c_swept : Metrics.counter;
  }

  let instances = ref 0

  let make ~shards cfg =
    let sink = cfg.Onll.Config.sink in
    let n = !instances in
    incr instances;
    let reg =
      if Onll_obs.Sink.active sink then Onll_obs.Sink.registry sink
      else Metrics.create ()
    in
    {
      sh = Sh.make ~shards cfg;
      n = shards;
      coord =
        Array.init M.max_processes (fun p ->
            L.create ~sink ~replicas:cfg.Onll.Config.replicas
              ~name:
                (Printf.sprintf "%s%s.%d.txncoord.%d" S.name
                   cfg.Onll.Config.region_suffix n p)
              ~capacity:cfg.Onll.Config.log_capacity ());
      txn_seqs = Array.make M.max_processes 0;
      committed = Hashtbl.create 32;
      applied = Hashtbl.create 32;
      c_degraded = false;
      ostats = Onll_obs.Opstats.make sink;
      c_fast = Metrics.counter reg "txn.fast_path";
      c_committed = Metrics.counter reg "txn.committed";
      c_swept = Metrics.counter reg "txn.sweep.injected";
    }

  let create ?(shards = 4) ?log_capacity ?replicas () =
    let d = Onll.Config.default in
    make ~shards
      {
        d with
        Onll.Config.log_capacity =
          Option.value log_capacity ~default:d.Onll.Config.log_capacity;
        replicas = Option.value replicas ~default:d.Onll.Config.replicas;
      }

  let shards t = t.n
  let sink t = Sh.sink t.sh
  let sharded t = t.sh
  let participants t ops = Sh.participants t.sh ops
  let update t op = Sh.update t.sh op
  let read t op = Sh.read t.sh op
  let was_linearized t op id = Sh.was_linearized t.sh op id
  let recovered_ops t = Sh.recovered_ops t.sh
  let txn_was_committed t id = Hashtbl.mem t.committed id

  let committed_txns t =
    Hashtbl.fold (fun id _ acc -> id :: acc) t.committed []
    |> List.sort compare

  let coordinator_entries t =
    Array.fold_left (fun acc l -> acc + L.entry_count l) 0 t.coord

  (* {2 Reclamation} *)

  (* Compact every shard, then drop the prefix of each coordinator log
     whose commit records are fully covered: every sub-operation either
     checkpoint-summarised (-1) or at an index at or below its shard's
     fresh checkpoint. Commit records the applied table does not vouch
     for — another process's in-flight transaction — stop the prefix. *)
  let compact t =
    let uptos = Array.init t.n (fun i -> C.compact (Sh.shard t.sh i)) in
    Array.iter
      (fun log ->
        let covered cm =
          match
            Hashtbl.find_opt t.applied
              { txn_proc = cm.cm_proc; txn_seq = cm.cm_seq }
          with
          | None -> false
          | Some placed ->
              List.for_all
                (fun (shard, idx) -> idx = -1 || idx <= uptos.(shard))
                placed
        in
        let rec count acc = function
          | [] -> acc
          | e :: rest -> (
              match Onll_util.Codec.decode commit_codec e with
              | cm when covered cm -> count (acc + 1) rest
              | _ -> acc
              | exception _ -> acc)
        in
        let droppable = count 0 (L.entries log) in
        if droppable > 0 then begin
          L.set_head log droppable;
          (* set_head only advances the head pointer; relocating physically
             reclaims the dead pre-head bytes so appends can reuse them. *)
          L.relocate log
        end)
      t.coord

  (* {2 The commit path} *)

  let append_coord t p payload =
    let log = t.coord.(p) in
    try L.append log payload
    with Onll_plog.Plog.Full -> (
      compact t;
      try L.append log payload
      with Onll_plog.Plog.Full -> raise (Onll.Log_full (L.name log)))

  let txn_commit t ~id ops =
    A.attributed t.ostats Onll_obs.Opstats.txn_done (fun () ->
        let p = id.txn_proc in
        (* Fix every sub-operation's per-shard identity up front, so the
           staged payload embeds the complete transaction. *)
        let subs =
          List.map
            (fun op ->
              let s = Sh.shard_of_update t.sh op in
              let seq = C.reserve_seq (Sh.shard t.sh s) in
              {
                c_shard = s;
                c_proc = p;
                c_seq = seq;
                c_idx = -1;
                c_op = op;
              })
            ops
        in
        (* Stage (order): insert each sub-operation, unavailable, tagged
           with the payload — from here on, any helper that persists one
           of these nodes durably commits the whole transaction. *)
        let payload0 =
          Onll_util.Codec.encode commit_codec
            { cm_proc = p; cm_seq = id.txn_seq; cm_subs = subs }
        in
        let staged =
          List.map
            (fun sub ->
              let shard = Sh.shard t.sh sub.c_shard in
              let st =
                C.stage_txn shard ~seq:sub.c_seq ~payload:payload0 sub.c_op
              in
              ({ sub with c_idx = C.staged_idx st }, st))
            subs
        in
        (* Commit: ONE fenced append in the coordinator's own region —
           the transaction's durability point. *)
        let subs = List.map fst staged in
        append_coord t p
          (Onll_util.Codec.encode commit_codec
             { cm_proc = p; cm_seq = id.txn_seq; cm_subs = subs });
        Hashtbl.replace t.committed id subs;
        Hashtbl.replace t.applied id
          (List.map (fun sub -> (sub.c_shard, sub.c_idx)) subs);
        Metrics.incr t.c_committed;
        (* Finish (linearize): availability flips and value computation
           only — no further fences. *)
        let values =
          List.map
            (fun (sub, st) -> C.finish_txn (Sh.shard t.sh sub.c_shard) st)
            staged
        in
        let sink = Sh.sink t.sh in
        if Onll_obs.Sink.active sink then
          Onll_obs.Sink.emit sink ~proc:p
            (Onll_obs.Event.Txn
               {
                 shards = List.length (participants t ops);
                 ops = List.length ops;
               });
        M.return_point ();
        values)

  let txn t ops =
    match ops with
    | [] -> []
    | [ op ] ->
        (* Single-shard fast path: a plain sharded update is already
           atomic and already one fence — no coordinator record. *)
        Metrics.incr t.c_fast;
        [ Sh.update t.sh op ]
    | ops ->
        let p = M.self () in
        let seq = t.txn_seqs.(p) in
        t.txn_seqs.(p) <- seq + 1;
        txn_commit t ~id:{ txn_proc = p; txn_seq = seq } ops

  let txn_detectable t ~seq ops =
    match ops with
    | [] | [ _ ] ->
        invalid_arg "Onll_txn.txn_detectable: needs at least 2 operations"
    | ops ->
        let p = M.self () in
        if seq < t.txn_seqs.(p) then
          invalid_arg "Onll_txn.txn_detectable: sequence number reused";
        t.txn_seqs.(p) <- seq + 1;
        txn_commit t ~id:{ txn_proc = p; txn_seq = seq } ops

  (* {2 Recovery: coordinator sweep before new submissions} *)

  let recover_report t =
    Hashtbl.reset t.committed;
    Hashtbl.reset t.applied;
    Array.fill t.txn_seqs 0 M.max_processes 0;
    let failures = ref 0 in
    (* 1. Coordinator logs: salvage, then the committed set C1 — in
       deterministic (process, log) order, which fixes the sweep order. *)
    let recovered = Array.to_list (Array.map L.recover t.coord) in
    let coord_salvage =
      List.map2
        (fun l (r, _) -> (L.name l, r))
        (Array.to_list t.coord) recovered
    in
    if
      List.exists
        (fun (_, s) -> s.Onll_plog.Plog.quarantined_spans > 0)
        coord_salvage
    then t.c_degraded <- true;
    let c1 =
      List.concat_map
        (fun (_, payloads) ->
          Onll_util.Codec.decode_tolerant commit_codec ~failures payloads)
        recovered
    in
    (* 2. Per-shard recovery with C1's staged indices as the oracle. *)
    let extras = Array.make t.n [] in
    List.iter
      (fun cm ->
        List.iter
          (fun sub ->
            if sub.c_idx >= 0 then
              extras.(sub.c_shard) <-
                ( sub.c_idx,
                  { Onll.id_proc = sub.c_proc; id_seq = sub.c_seq },
                  sub.c_op )
                :: extras.(sub.c_shard))
          cm.cm_subs)
      c1;
    let shard_results =
      Array.init t.n (fun i ->
          C.recover_txn (Sh.shard t.sh i) ~extra:(List.rev extras.(i)))
    in
    (* 3. Helper-committed transactions: payloads found riding in shard
       logs (C2), deduplicated against C1 and each other. *)
    let seen = Hashtbl.create 16 in
    List.iter (fun cm -> Hashtbl.replace seen (cm.cm_proc, cm.cm_seq) ()) c1;
    let c2 =
      Array.to_list shard_results
      |> List.concat_map snd
      |> List.filter_map (fun payload ->
             match Onll_util.Codec.decode commit_codec payload with
             | cm ->
                 if Hashtbl.mem seen (cm.cm_proc, cm.cm_seq) then None
                 else begin
                   Hashtbl.replace seen (cm.cm_proc, cm.cm_seq) ();
                   Some cm
                 end
             | exception _ ->
                 incr failures;
                 None)
      |> List.sort (fun a b ->
             compare (a.cm_proc, a.cm_seq) (b.cm_proc, b.cm_seq))
    in
    let all = c1 @ c2 in
    (* 4. Committed table + transaction sequence allocation. *)
    List.iter
      (fun cm ->
        Hashtbl.replace t.committed
          { txn_proc = cm.cm_proc; txn_seq = cm.cm_seq }
          cm.cm_subs;
        if cm.cm_seq >= t.txn_seqs.(cm.cm_proc) then
          t.txn_seqs.(cm.cm_proc) <- cm.cm_seq + 1)
      all;
    (* 5. The sweep: every committed sub-operation the rebuilt traces do
       not contain is re-applied exactly-once (identity-keyed) and made
       durable in this process's shard log, one fenced run per shard. *)
    let missing = Array.make t.n [] in
    List.iter
      (fun cm ->
        List.iter
          (fun sub ->
            let shard = Sh.shard t.sh sub.c_shard in
            let id = { Onll.id_proc = sub.c_proc; id_seq = sub.c_seq } in
            if not (C.was_linearized shard id) then
              missing.(sub.c_shard) <- (id, sub.c_op) :: missing.(sub.c_shard))
          cm.cm_subs)
      all;
    let injected = ref 0 in
    Array.iteri
      (fun i subs ->
        match List.rev subs with
        | [] -> ()
        | subs ->
            let idxs = C.inject_txn_run (Sh.shard t.sh i) subs in
            injected := !injected + List.length idxs;
            Metrics.add t.c_swept (List.length idxs))
      missing;
    (* 6. Applied indices, for coordinator truncation. A committed sub
       recovery knows of but cannot locate in a recovered table sits
       below a checkpoint floor: covered (-1). *)
    let maps =
      Array.init t.n (fun i ->
          let m = Hashtbl.create 32 in
          List.iter
            (fun (id, idx) -> Hashtbl.replace m id idx)
            (C.recovered_ops (Sh.shard t.sh i));
          m)
    in
    Hashtbl.iter
      (fun id subs ->
        Hashtbl.replace t.applied id
          (List.map
             (fun sub ->
               let sid = { Onll.id_proc = sub.c_proc; id_seq = sub.c_seq } in
               ( sub.c_shard,
                 Option.value ~default:(-1)
                   (Hashtbl.find_opt maps.(sub.c_shard) sid) ))
             subs))
      t.committed;
    (* 7. Composed report: shards as Onll_sharded composes them, the
       coordinator logs' salvage prepended, swept re-applies counted as
       recovered operations. *)
    let r = Report.merge (Array.to_list (Array.map fst shard_results)) in
    {
      r with
      Report.recovered_ops = r.Report.recovered_ops + !injected;
      decode_failures = r.Report.decode_failures + !failures;
      salvage = coord_salvage @ r.Report.salvage;
    }

  let recover t = Report.check (recover_report t)

  let recover_unhardened t =
    Hashtbl.reset t.committed;
    Hashtbl.reset t.applied;
    Sh.recover_unhardened t.sh;
    Array.iter L.recover_unhardened t.coord

  let scrub t =
    let r = Sh.scrub t.sh in
    let r =
      Array.fold_left
        (fun acc l -> Onll_plog.Plog.add_scrub acc (L.scrub l))
        r t.coord
    in
    if r.Onll_plog.Plog.unrepairable_spans > 0 then t.c_degraded <- true;
    r

  let degraded t = Sh.degraded t.sh || t.c_degraded

  let snapshot t =
    let s = Sh.snapshot t.sh in
    let coord_logs =
      Array.to_list t.coord
      |> List.map (fun l ->
             let ops_per_entry =
               List.map
                 (fun e ->
                   match Onll_util.Codec.decode commit_codec e with
                   | cm -> List.length cm.cm_subs
                   | exception _ -> 0)
                 (L.entries l)
             in
             {
               Onll.Snapshot.log_name = L.name l;
               live_bytes = L.live_bytes l;
               used_bytes = L.used_bytes l;
               entry_count = List.length ops_per_entry;
               ops_per_entry;
             })
    in
    {
      s with
      Onll.Snapshot.logs = s.Onll.Snapshot.logs @ coord_logs;
      degraded = s.Onll.Snapshot.degraded || t.c_degraded;
    }
end
