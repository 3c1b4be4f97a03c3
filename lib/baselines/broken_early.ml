(** Deliberately broken: "linearize now, persist later, readers do nothing."

    This is the first bad branch of the paper's §3.1 case analysis, built
    on purpose: updates become visible at insertion (before their log append
    is fenced) and readers return immediately without helping persistence.
    A reader can therefore observe an update, respond — perhaps print the
    value — and a crash then erases the update the response depended on:
    a durable-linearizability violation.

    Exists to validate the oracle end-to-end: the test suite drives this
    implementation into the bad window and asserts that
    {!Onll_histcheck.Histcheck} rejects the recorded history, and that the
    same schedule against real ONLL is accepted. Never use this for
    anything else. *)

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
    mutable trace : (envelope, unit) T.t;
        (* [available] abused to mean "persistent", as in Persist_on_read *)
    logs : L.t array;
    seqs : int array;
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
              ~name:(Printf.sprintf "%s.%d.broken.%d" S.name n p)
              ~capacity:log_capacity ());
      seqs = Array.make M.max_processes 0;
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

  let update t op =
    A.attributed t.ostats Onll_obs.Opstats.update_done (fun () ->
        let p = M.self () in
        let seq = t.seqs.(p) in
        t.seqs.(p) <- seq + 1;
        (* linearized right here — visible before it is durable *)
        let node = T.insert t.trace { e_proc = p; e_seq = seq; e_op = op } in
        let fuzzy = T.fuzzy_envs node in
        let payload =
          Onll_util.Codec.encode record_codec
            (Ops { exec_idx = node.T.idx; envs = fuzzy })
        in
        L.append t.logs.(p) payload;
        M.Tvar.set node.T.available true;
        let _, value = state_at node in
        M.return_point ();
        Option.get value)

  (* THE BUG: the reader observes the raw tail — linearized but possibly
     unpersisted operations — and neither waits nor helps. *)
  let read t rop =
    A.attributed t.ostats Onll_obs.Opstats.read_done (fun () ->
        let node = T.tail t.trace in
        let st, _ = state_at node in
        let v = S.read st rop in
        M.return_point ();
        v)

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
    (let rec rebuild idx =
       if idx <= max_idx then
         match Hashtbl.find_opt by_idx idx with
         | None -> ()  (* stop at the first gap: the suffix is lost *)
         | Some env ->
             let node = T.insert trace env in
             M.Tvar.set node.T.available true;
             if env.e_seq >= t.seqs.(env.e_proc) then
               t.seqs.(env.e_proc) <- env.e_seq + 1;
             rebuild (idx + 1)
     in
     rebuild 1);
    t.trace <- trace
end
