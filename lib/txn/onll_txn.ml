(** Cross-shard atomic transactions (E19); see onll_txn.mli. *)

module Onll = Onll_core.Onll
module Metrics = Onll_obs.Metrics

type txn_id = { txn_proc : int; txn_seq : int }

let pp_txn_id ppf { txn_proc; txn_seq } =
  Format.fprintf ppf "t%d#%d" txn_proc txn_seq

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) = struct
  (* The per-shard construction at its full TXN_CAPABLE surface: the
     [with module Shard = C] equality below is what lets this layer call
     the staging/oracle extensions on [Sh.shard t i]. *)
  module C = Onll.Make (M) (S)
  module Sh = Onll_sharded.Make_over (M) (S) (C)
  module A = Onll_core.Attribution.Make (M)

  (* {2 The commit record}

     One CRC-framed entry in the coordinator's own log region: the
     transaction id plus every sub-operation with its shard, per-shard
     identity and the execution index it was staged at, which recovery
     feeds to {!Onll.TXN_CAPABLE.recover_txn} as the oracle. The staged
     payload carried by in-trace envelopes is the same encoding with
     indices -1 (unknown at staging time); recovery never needs indices
     from helper-carried payloads — helper-committed sub-operations are
     log-resident. *)

  type sub = { shard : int; id : Onll.op_id; idx : int; op : S.update_op }
  type commit = { cm_proc : int; cm_seq : int; cm_subs : sub list }

  let commit_codec =
    let open Onll_util.Codec in
    let sub =
      map
        (fun ((shard, id_proc, id_seq), (idx, op)) ->
          { shard; id = { Onll.id_proc; id_seq }; idx; op })
        (fun { shard; id; idx; op } ->
          ((shard, id.Onll.id_proc, id.Onll.id_seq), (idx, op)))
        (pair (triple int int int) (pair int S.update_codec))
    in
    map
      (fun ((cm_proc, cm_seq), cm_subs) -> { cm_proc; cm_seq; cm_subs })
      (fun { cm_proc; cm_seq; cm_subs } -> ((cm_proc, cm_seq), cm_subs))
      (pair (pair int int) (list sub))

  module L = Onll_plog.Plog.Make (M)

  type t = {
    sh : Sh.t;
    n : int;
    coord : L.t array;
        (** per process: the coordinator's own region, the transaction
            durability point *)
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
  let covered t uptos cm =
    match
      Hashtbl.find_opt t.applied { txn_proc = cm.cm_proc; txn_seq = cm.cm_seq }
    with
    | None -> false
    | Some placed ->
        List.for_all
          (fun (shard, idx) -> idx = -1 || idx <= uptos.(shard))
          placed

  let compact t =
    let uptos = Array.init t.n (fun i -> C.compact (Sh.shard t.sh i)) in
    Array.iter
      (fun log ->
        (* a record that does not decode stops the prefix *)
        let rec count n = function
          | e :: rest when
              (match Onll_util.Codec.decode commit_codec e with
              | cm -> covered t uptos cm
              | exception _ -> false) ->
              count (n + 1) rest
          | _ -> n
        in
        let n = count 0 (L.entries log) in
        if n > 0 then begin
          L.set_head log n;
          (* set_head only advances the head pointer; relocating
             physically reclaims the dead pre-head bytes for appends *)
          L.relocate log
        end)
      t.coord

  (* {2 The commit path} *)

  let txn_commit t ~id ops =
    A.attributed t.ostats Onll_obs.Opstats.txn_done (fun () ->
        let p = id.txn_proc in
        (* Fix every sub-operation's per-shard identity up front, so the
           staged payload embeds the complete transaction. *)
        let subs =
          List.map
            (fun op ->
              let shard = Sh.shard_of_update t.sh op in
              let id_seq = C.reserve_seq (Sh.shard t.sh shard) in
              { shard; id = { Onll.id_proc = p; id_seq }; idx = -1; op })
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
            (fun (sub : sub) ->
              let shard = Sh.shard t.sh sub.shard in
              let st =
                C.stage_txn shard ~seq:sub.id.Onll.id_seq ~payload:payload0
                  sub.op
              in
              ({ sub with idx = C.staged_idx st }, st))
            subs
        in
        (* Commit: ONE fenced append in the coordinator's own region —
           the transaction's durability point. A full log compacts and
           retries once; still full is terminal. *)
        let subs = List.map fst staged in
        let log = t.coord.(M.self ()) in
        let record =
          Onll_util.Codec.encode commit_codec
            { cm_proc = p; cm_seq = id.txn_seq; cm_subs = subs }
        in
        (try L.append log record
         with Onll_plog.Plog.Full -> (
           compact t;
           try L.append log record
           with Onll_plog.Plog.Full -> raise (Onll.Log_full (L.name log))));
        Hashtbl.replace t.committed id subs;
        Hashtbl.replace t.applied id
          (List.map (fun (sub : sub) -> (sub.shard, sub.idx)) subs);
        Metrics.incr t.c_committed;
        (* Finish (linearize): availability flips and value computation
           only — no further fences. *)
        let values =
          List.map
            (fun ((sub : sub), st) -> C.finish_txn (Sh.shard t.sh sub.shard) st)
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
    let shards = Array.init t.n (Sh.shard t.sh) in
    (* 1-2. Coordinator logs: salvage and decode (an undecodable record
       is counted in [failures] and skipped), the committed set C1; then
       per-shard recovery with C1's staged indices as the oracle. *)
    let recovered = Array.map L.recover t.coord in
    let salvage =
      Array.to_list
        (Array.map2 (fun l (r, _) -> (L.name l, r)) t.coord recovered)
    in
    if
      List.exists
        (fun (_, s) -> s.Onll_plog.Plog.quarantined_spans > 0)
        salvage
    then t.c_degraded <- true;
    let c1 =
      Array.to_list recovered
      |> List.concat_map (fun (_, payloads) ->
             Onll_util.Codec.decode_tolerant commit_codec ~failures payloads)
    in
    let extras = Array.make t.n [] in
    List.iter
      (fun cm ->
        List.iter
          (fun s -> extras.(s.shard) <- (s.idx, s.id, s.op) :: extras.(s.shard))
          cm.cm_subs)
      c1;
    let reports =
      Array.mapi
        (fun i c -> C.recover_txn c ~extra:(List.rev extras.(i)))
        shards
    in
    (* 3. Helper-committed transactions: payloads found riding in shard
       logs (C2), deduplicated against C1 and each other. *)
    let seen = Hashtbl.create 16 in
    let first cm =
      let k = (cm.cm_proc, cm.cm_seq) in
      (not (Hashtbl.mem seen k)) && (Hashtbl.replace seen k (); true)
    in
    List.iter (fun cm -> ignore (first cm)) c1;
    let c2 =
      Array.to_list reports
      |> List.concat_map snd
      |> Onll_util.Codec.decode_tolerant commit_codec ~failures
      |> List.filter first
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
       not contain is re-applied once (keyed by shard and identity), in
       commit order, and made durable by one fenced run per shard in the
       calling process's log. *)
    let swept = Hashtbl.create 16 in
    let missing = Array.make t.n [] in
    List.iter
      (fun cm ->
        List.iter
          (fun s ->
            if
              not
                (Hashtbl.mem swept (s.shard, s.id)
                || C.was_linearized shards.(s.shard) s.id)
            then begin
              Hashtbl.replace swept (s.shard, s.id) ();
              missing.(s.shard) <- (s.id, s.op) :: missing.(s.shard)
            end)
          cm.cm_subs)
      all;
    let injected =
      Array.fold_left ( + ) 0
        (Array.mapi
           (fun i run ->
             List.length (C.inject_txn_run shards.(i) (List.rev run)))
           missing)
    in
    Metrics.add t.c_swept injected;
    (* 6. Applied indices, for coordinator truncation. A committed sub
       recovery knows of but cannot locate in a recovered table sits
       below a checkpoint floor: covered (-1). *)
    let maps =
      Array.map
        (fun c -> Hashtbl.of_seq (List.to_seq (C.recovered_ops c)))
        shards
    in
    Hashtbl.iter
      (fun id subs ->
        Hashtbl.replace t.applied id
          (List.map
             (fun (sub : sub) ->
               ( sub.shard,
                 Option.value ~default:(-1)
                   (Hashtbl.find_opt maps.(sub.shard) sub.id) ))
             subs))
      t.committed;
    (* 7. Composed report: shards as Onll_sharded composes them, the
       coordinator salvage first, undecodable records as decode failures
       and re-applies as recovered operations. *)
    let r =
      Onll.Recovery_report.merge (Array.to_list (Array.map fst reports))
    in
    {
      r with
      recovered_ops = r.recovered_ops + injected;
      decode_failures = r.decode_failures + !failures;
      salvage = salvage @ r.salvage;
    }

  let recover_unhardened t =
    Hashtbl.reset t.committed;
    Hashtbl.reset t.applied;
    Sh.recover_unhardened t.sh;
    Array.iter L.recover_unhardened t.coord

  let scrub t =
    let r =
      Array.fold_left
        (fun acc l -> Onll_plog.Plog.add_scrub acc (L.scrub l))
        (Sh.scrub t.sh) t.coord
    in
    if r.Onll_plog.Plog.unrepairable_spans > 0 then t.c_degraded <- true;
    r

  let degraded t = Sh.degraded t.sh || t.c_degraded
end
