(** "Linearize now, persist later, readers wait" — §3.1's second branch.

    Like {!Persist_on_read}, updates are linearized at insertion, before
    they are durable. But here a reader that observes a not-yet-persistent
    operation {e waits} for the updater to finish persisting instead of
    helping. Durability is preserved (the reader never responds before its
    observation is durable) — but lock-freedom is lost: a reader spins
    behind a stalled updater forever, which the scripted tests demonstrate
    as a livelock. Together with {!Broken_early} (branch one: violates
    durability) and {!Persist_on_read} (branch three: readers pay fences),
    this completes the paper's case analysis in runnable form; ONLL's design
    is exactly the escape from all three. *)

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
        (* [available] means "persistent", set by the owner after its
           fence *)
    logs : L.t array;
    seqs : int array;
    mutable reader_waits : int;  (** reads that had to spin (statistics) *)
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
              ~name:(Printf.sprintf "%s.%d.wor.%d" S.name n p)
              ~capacity:log_capacity ());
      seqs = Array.make M.max_processes 0;
      reader_waits = 0;
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
        (* linearize now *)
        let node = T.insert t.trace { e_proc = p; e_seq = seq; e_op = op } in
        let fuzzy = T.fuzzy_envs node in
        let payload =
          Onll_util.Codec.encode record_codec
            (Ops { exec_idx = node.T.idx; envs = fuzzy })
        in
        (* Full propagates: baselines deliberately do not compact (cost
           comparisons only; size logs for the workload). *)
        L.append t.logs.(p) payload;
        M.Tvar.set node.T.available true;
        let _, value = state_at node in
        M.return_point ();
        Option.get value)

  (* THE COST: the reader observes the raw tail and, if its observation is
     not yet durable, spins until the responsible updater persists it. *)
  let read t rop =
    A.attributed t.ostats Onll_obs.Opstats.read_done (fun () ->
        let node = T.tail t.trace in
        if not (M.Tvar.get node.T.available) then begin
          t.reader_waits <- t.reader_waits + 1;
          while not (M.Tvar.get node.T.available) do
            M.pause ()
          done
        end;
        let st, _ = state_at node in
        let v = S.read st rop in
        M.return_point ();
        v)

  let reader_waits t = t.reader_waits

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
