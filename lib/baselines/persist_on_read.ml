(** "Linearize now, persist later" — the design §3.1 argues against.

    Structurally ONLL's sibling: same execution trace, same per-process
    single-fence logs, same recovery. The difference is the order of stages:
    an update is {e linearized at insertion} (it becomes visible to readers
    immediately), and the trace's per-node flag tracks {e persistence}
    instead of availability. The §3.1 case analysis then forces a choice on
    readers that observe a not-yet-persistent operation; this implementation
    takes the third branch — {e the reader helps the update persist} —
    which preserves durable linearizability and lock-freedom but gives up
    the "no persistent fences on reads" property. Benchmarks measure exactly
    how often readers pay.

    Fence cost: 1 per update, plus 1 per read whose observed prefix is not
    yet persistent. *)

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) = struct
  module T = Onll_core.Trace.Make (M)
  module L = Onll_plog.Plog.Make (M)

  type envelope = { e_proc : int; e_seq : int; e_op : S.update_op }

  type record = Ops of { exec_idx : int; envs : envelope list }

  let envelope_codec =
    let open Onll_util.Codec in
    map
      (fun (e_proc, e_seq, e_op) -> { e_proc; e_seq; e_op })
      (fun { e_proc; e_seq; e_op } -> (e_proc, e_seq, e_op))
      (triple int int S.update_codec)

  let record_codec =
    let open Onll_util.Codec in
    map
      (fun (exec_idx, envs) -> Ops { exec_idx; envs })
      (fun (Ops { exec_idx; envs }) -> (exec_idx, envs))
      (pair int (list envelope_codec))

  type t = {
    (* In this trace, a node's [available] flag means "persistent". Nodes
       are visible (linearized) as soon as they are inserted. *)
    mutable trace : (envelope, unit) T.t;
    logs : L.t array;
    seqs : int array;
    mutable read_fences : int;  (** reads that had to fence (statistics) *)
    ostats : Onll_obs.Opstats.t;
  }

  module A = Onll_core.Attribution.Make (M)

  let instances = ref 0

  let create ?(log_capacity = 1 lsl 16) ?(sink = Onll_obs.Sink.null) () =
    let n = !instances in
    incr instances;
    {
      trace = T.create ~sink ~base_idx:0 ~base_state:() ();
      logs =
        Array.init M.max_processes (fun p ->
            L.create ~sink
              ~name:(Printf.sprintf "%s.%d.por.%d" S.name n p)
              ~capacity:log_capacity ());
      seqs = Array.make M.max_processes 0;
      read_fences = 0;
      ostats = Onll_obs.Opstats.make sink;
    }

  let state_at node =
    let _, delta = T.delta_from node in
    List.fold_left
      (fun (st, _) (_, env) ->
        let st', v = S.apply st env.e_op in
        (st', Some v))
      (S.initial, None)
      delta

  (* Persist [node]'s unpersisted window into [proc]'s log and mark the
     node persistent. One persistent fence. *)
  let persist_window t ~proc node =
    let fuzzy = T.fuzzy_envs node in
    let payload =
      Onll_util.Codec.encode record_codec
        (Ops { exec_idx = node.T.idx; envs = fuzzy })
    in
    L.append t.logs.(proc) payload;
    M.Tvar.set node.T.available true

  let update t op =
    A.attributed t.ostats Onll_obs.Opstats.update_done (fun () ->
        let p = M.self () in
        let seq = t.seqs.(p) in
        t.seqs.(p) <- seq + 1;
        (* Linearize now: visible to every reader from this insertion on. *)
        let node = T.insert t.trace { e_proc = p; e_seq = seq; e_op = op } in
        persist_window t ~proc:p node;
        let _, value = state_at node in
        M.return_point ();
        Option.get value)

  let read t rop =
    (* Readers observe the very tail — every inserted update is linearized.
       If that prefix is not yet durable, the reader must make it durable
       before responding (§3.1, branch three). The helping fence lands in
       [fences.read] — the attribution the benchmarks exist to expose. *)
    A.attributed t.ostats Onll_obs.Opstats.read_done (fun () ->
        let node = T.tail t.trace in
        if not (M.Tvar.get node.T.available) then begin
          t.read_fences <- t.read_fences + 1;
          persist_window t ~proc:(M.self ()) node
        end;
        let st, _ = state_at node in
        let v = S.read st rop in
        M.return_point ();
        v)

  let read_fences t = t.read_fences

  let recover t =
    let payloads = Array.map (fun l -> snd (L.recover l)) t.logs in
    let by_idx = Hashtbl.create 64 in
    Array.iter
      (fun entries ->
        List.iter
          (fun payload ->
            let (Ops { exec_idx; envs }) =
              Onll_util.Codec.decode record_codec payload
            in
            List.iteri
              (fun k env -> Hashtbl.replace by_idx (exec_idx - k) env)
              envs)
          entries)
      payloads;
    let max_idx = Hashtbl.fold (fun i _ acc -> max i acc) by_idx 0 in
    let trace =
      T.create ~sink:(Onll_obs.Opstats.sink t.ostats) ~base_idx:0
        ~base_state:() ()
    in
    Array.fill t.seqs 0 (Array.length t.seqs) 0;
    for idx = 1 to max_idx do
      match Hashtbl.find_opt by_idx idx with
      | None ->
          raise
            (Onll_core.Onll.Recovery_corrupt
               (Printf.sprintf "operation at index %d missing from all logs"
                  idx))
      | Some env ->
          let node = T.insert trace env in
          M.Tvar.set node.T.available true;
          if env.e_seq >= t.seqs.(env.e_proc) then
            t.seqs.(env.e_proc) <- env.e_seq + 1
    done;
    t.trace <- trace

  let current_state t = fst (state_at (T.tail t.trace))
end
