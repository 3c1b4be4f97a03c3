(* The coordinator log of E19 ({!Onll_txn}) and E20 ({!Onll_relaxed}).

   Both lift Theorem 5.1 the same way: staged sub-operations become
   durable through ONE fenced record in the coordinating process's own
   log (a commit record, a drain record) that lists each with its shard,
   identity and staged execution index. Recovery feeds those indices to
   {!Onll.TXN_CAPABLE.recover_txn} as the oracle, then re-applies what the
   rebuilt traces still cannot place. The record format and what a record
   means (ledgers, committed tables) stay with the caller. *)

type 'op sub = { shard : int; id : Onll.op_id; idx : int; op : 'op }
(** [idx] is the staged execution index in shard [shard], -1 where it is
    not known (a payload written at staging time). *)

module Make
    (M : Onll_machine.Machine_sig.S)
    (S : Spec.S)
    (C : Onll.TXN_CAPABLE with type update_op = S.update_op)
    (R : sig
      type t

      val kind : string  (* region names: <spec><suffix>.<n>.<kind>.<p> *)
      val codec : t Onll_util.Codec.t
      val subs : t -> S.update_op sub list
    end) =
struct
  module L = Onll_plog.Plog.Make (M)
  module Report = Onll.Recovery_report

  type t = L.t array  (** per process: the coordinator's own region *)

  let instances = ref 0

  let create (cfg : Onll.Config.t) =
    let n = !instances in
    incr instances;
    Array.init M.max_processes (fun p ->
        L.create ~sink:cfg.Onll.Config.sink ~replicas:cfg.Onll.Config.replicas
          ~name:
            (Printf.sprintf "%s%s.%d.%s.%d" S.name
               cfg.Onll.Config.region_suffix n R.kind p)
          ~capacity:cfg.Onll.Config.log_capacity ())

  let entries t = Array.fold_left (fun acc l -> acc + L.entry_count l) 0 t

  (* The record's one fence, in the calling process's log. A full log
     runs the caller's [compact], which trims these logs, and retries
     once; still full is terminal. *)
  let append t ~compact r =
    let log = t.(M.self ()) in
    let payload = Onll_util.Codec.encode R.codec r in
    try L.append log payload
    with Onll_plog.Plog.Full -> (
      compact ();
      try L.append log payload
      with Onll_plog.Plog.Full -> raise (Onll.Log_full (L.name log)))

  (* Drop each log's leading records that [covered] vouches for (one that
     does not decode stops the prefix) or, without [covered], all of them,
     reading none back. A log with nothing to drop costs nothing. *)
  let trim ?covered t =
    Array.iter
      (fun log ->
        let n =
          match covered with
          | None -> L.entry_count log
          | Some covered ->
              let rec count n = function
                | e :: rest when
                    (match Onll_util.Codec.decode R.codec e with
                    | r -> covered r
                    | exception _ -> false) ->
                    count (n + 1) rest
                | _ -> n
              in
              count 0 (L.entries log)
        in
        if n > 0 then begin
          L.set_head log n;
          (* set_head only advances the head pointer; relocating
             physically reclaims the dead pre-head bytes for appends *)
          L.relocate log
        end)
      t

  (* {2 Recovery} *)

  type recovery = {
    records : R.t list;  (** in (process, log) order: the sweep order *)
    salvage : (string * Onll_plog.Plog.salvage_report) list;
    shards : (Report.t * string list) array;  (** each [recover_txn] *)
  }

  (* Salvage and decode every coordinator log (an undecodable record is
     counted in [failures] and skipped), then recover each shard with the
     records' staged indices as its oracle. *)
  let recover t shards ~failures =
    let recovered = Array.to_list (Array.map L.recover t) in
    let records =
      List.concat_map
        (fun (_, payloads) ->
          Onll_util.Codec.decode_tolerant R.codec ~failures payloads)
        recovered
    in
    let extras = Array.make (Array.length shards) [] in
    List.iter
      (fun r ->
        List.iter
          (fun s ->
            if s.idx >= 0 then
              extras.(s.shard) <- (s.idx, s.id, s.op) :: extras.(s.shard))
          (R.subs r))
      records;
    {
      records;
      salvage =
        List.map2 (fun l (r, _) -> (L.name l, r)) (Array.to_list t) recovered;
      shards =
        Array.mapi
          (fun i c -> C.recover_txn c ~extra:(List.rev extras.(i)))
          shards;
    }

  (* The re-apply sweep: each sub-operation the rebuilt traces do not
     hold is re-applied once (keyed by shard and identity), in the
     caller's order, and made durable by one fenced run per shard in the
     calling process's log. Returns how many it re-applied. *)
  let reapply shards subs =
    let seen = Hashtbl.create 16 in
    let missing = Array.make (Array.length shards) [] in
    List.iter
      (fun s ->
        if
          not
            (Hashtbl.mem seen (s.shard, s.id)
            || C.was_linearized shards.(s.shard) s.id)
        then begin
          Hashtbl.replace seen (s.shard, s.id) ();
          missing.(s.shard) <- (s.id, s.op) :: missing.(s.shard)
        end)
      subs;
    let injected = ref 0 in
    Array.iteri
      (fun i run ->
        if run <> [] then
          injected :=
            !injected
            + List.length (C.inject_txn_run shards.(i) (List.rev run)))
      missing;
    !injected

  (* The shards' reports merged, the coordinator salvage first,
     undecodable records as decode failures and re-applies as recovered
     operations. *)
  let report rc ~failures ~injected =
    let r = Report.merge (Array.to_list (Array.map fst rc.shards)) in
    {
      r with
      Report.recovered_ops = r.Report.recovered_ops + injected;
      decode_failures = r.Report.decode_failures + failures;
      salvage = rc.salvage @ r.Report.salvage;
    }

  let recover_unhardened t = Array.iter L.recover_unhardened t

  let scrub t r =
    Array.fold_left (fun acc l -> Onll_plog.Plog.add_scrub acc (L.scrub l)) r t

  (* One row per log; a record that does not decode counts 0
     sub-operations, as recovery adopted none from it. *)
  let snapshot_rows t =
    Array.to_list t
    |> List.map (fun l ->
           let ops_per_entry =
             List.map
               (fun e ->
                 match Onll_util.Codec.decode R.codec e with
                 | r -> List.length (R.subs r)
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
end
