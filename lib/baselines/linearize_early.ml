(** "Linearize now, persist later" — the design §3.1 argues against (see
    linearize_early.mli). *)

type reader = Help | Wait | Return

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
    reader : reader;
    (* In this trace, a node's durable flag means "persistent". Nodes
       are visible (linearized) as soon as they are inserted. *)
    mutable trace : (envelope, unit, unit) T.t;
    logs : L.t array;
    seqs : int array;
    mutable read_fences : int;  (** reads that had to fence (statistics) *)
    mutable reader_waits : int;  (** reads that had to spin (statistics) *)
    ostats : Onll_obs.Opstats.t;
  }

  module A = Onll_core.Attribution.Make (M)

  let instances = ref 0

  let create ?(log_capacity = 1 lsl 16) ?(sink = Onll_obs.Sink.null) reader =
    let n = !instances in
    incr instances;
    let region =
      match reader with Help -> "por" | Wait -> "wor" | Return -> "broken"
    in
    {
      reader;
      trace = T.create ~sink ~base_idx:0 ~base_state:() ();
      logs =
        Array.init M.max_processes (fun p ->
            L.create ~sink
              ~name:(Printf.sprintf "%s.%d.%s.%d" S.name n region p)
              ~capacity:log_capacity ());
      seqs = Array.make M.max_processes 0;
      read_fences = 0;
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

  (* Persist [node]'s unpersisted window into [proc]'s log and mark the
     node persistent. One persistent fence. [Full] propagates: baselines
     deliberately do not compact (cost comparisons only; size logs for the
     workload). *)
  let persist_window t ~proc node =
    let fuzzy = T.fuzzy_envs t.trace node in
    let payload =
      Onll_util.Codec.encode record_codec
        (Ops { exec_idx = node.T.idx; envs = fuzzy })
    in
    L.append t.logs.(proc) payload;
    T.set_available node

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

  (* Readers observe the very tail — every inserted update is linearized.
     What a reader does when that prefix is not yet durable is the §3.1
     case analysis: [Return] responds anyway (THE BUG), [Wait] spins until
     the responsible updater persists it (THE COST: lock-freedom), [Help]
     makes it durable itself, and the helping fence lands in
     [fences.read] — the attribution the benchmarks exist to expose.
     [Return] never even looks at the flag. *)
  let read t rop =
    A.attributed t.ostats Onll_obs.Opstats.read_done (fun () ->
        let node = T.tail t.trace in
        (match t.reader with
        | Return -> ()
        | (Help | Wait) when T.is_available node -> ()
        | Help ->
            t.read_fences <- t.read_fences + 1;
            persist_window t ~proc:(M.self ()) node
        | Wait ->
            t.reader_waits <- t.reader_waits + 1;
            while not (T.is_available node) do
              M.pause ()
            done);
        let st, _ = state_at node in
        let v = S.read st rop in
        M.return_point ();
        v)

  let read_fences t = t.read_fences
  let reader_waits t = t.reader_waits

  (* Listing 5 through the shared adoption rule, with no checkpoint below.
     [Help] and [Wait] readers only ever observed durable operations, so a
     gap means corruption; a [Return] reader may already have observed the
     lost suffix, and recovery keeps the adopted prefix silently. *)
  let recover t =
    let entries =
      Array.to_list t.logs
      |> List.concat_map (fun l ->
             List.concat_map
               (fun payload ->
                 let (Ops { exec_idx; envs }) =
                   Onll_util.Codec.decode record_codec payload
                 in
                 List.mapi
                   (fun k env ->
                     {
                       Onll_core.Onll.Adoption.idx = exec_idx - k;
                       proc = env.e_proc;
                       seq = env.e_seq;
                       env;
                       resident = true;
                     })
                   envs)
               (snd (L.recover l)))
    in
    let trace =
      T.create ~sink:(Onll_obs.Opstats.sink t.ostats) ~base_idx:0
        ~base_state:() ()
    in
    let report, seqs =
      Onll_core.Onll.Adoption.run ~base_idx:0
        ~floors:(Array.make M.max_processes 0)
        (Array.of_list entries)
        ~adopt:(fun e -> T.set_available (T.insert trace e.env))
    in
    if t.reader <> Return then Onll_core.Onll.Recovery_report.check report;
    Array.blit seqs 0 t.seqs 0 M.max_processes;
    t.trace <- trace

  let current_state t = fst (state_at (T.tail t.trace))
end
