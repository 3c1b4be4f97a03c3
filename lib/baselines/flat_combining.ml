(** Lock-based flat combining (§8's closing discussion, after Hendler et
    al. [19] and the log-centric design of Cohen et al. [12]).

    Each process announces its update in a per-process slot; whoever holds
    the lock (the combiner) collects all announced operations, appends the
    whole batch to its persistent log with a {e single} persistent fence,
    applies the batch to a transient mirror, publishes the results, and
    releases. Waiters spin.

    This "beats" the lower bound on fences per operation — one fence can
    cover a whole batch — but only by giving up lock-freedom: every waiter
    pays the combiner's fence in waiting time, and a stalled combiner stalls
    the world (the lower-bound experiment demonstrates this as a livelock,
    where ONLL's processes each make progress with their own fence). *)

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) = struct
  module L = Onll_plog.Plog.Make (M)

  type slot =
    | Empty
    | Req of int * S.update_op  (** ticket, operation *)
    | Done of int * S.value  (** same ticket, result *)

  type record = Batch of { start_idx : int; ops : (int * S.update_op) list }

  let record_codec =
    let open Onll_util.Codec in
    map
      (fun (start_idx, ops) -> Batch { start_idx; ops })
      (fun (Batch { start_idx; ops }) -> (start_idx, ops))
      (pair int (list (pair int S.update_codec)))

  type t = {
    lock : bool M.Tvar.t;
    slots : slot M.Tvar.t array;
    mirror : S.state M.Tvar.t;  (** published only after the batch fence *)
    logs : L.t array;
    tickets : int array;  (** per process, owner-only *)
    mutable next_idx : int;  (** owned by the lock holder *)
    mutable batches : int;  (** statistics: batches appended *)
    mutable batched_ops : int;  (** statistics: operations covered *)
    ostats : Onll_obs.Opstats.t;
  }

  module A = Onll_core.Attribution.Make (M)

  let instances = ref 0

  let create ?(log_capacity = 1 lsl 16) ?(sink = Onll_obs.Sink.null) () =
    let n = !instances in
    incr instances;
    {
      lock = M.Tvar.make false;
      slots = Array.init M.max_processes (fun _ -> M.Tvar.make Empty);
      mirror = M.Tvar.make S.initial;
      logs =
        Array.init M.max_processes (fun p ->
            L.create ~sink
              ~name:(Printf.sprintf "%s.%d.fc.%d" S.name n p)
              ~capacity:log_capacity ());
      tickets = Array.make M.max_processes 0;
      next_idx = 0;
      batches = 0;
      batched_ops = 0;
      ostats = Onll_obs.Opstats.make sink;
    }

  let try_lock t = M.Tvar.cas t.lock ~expected:false ~desired:true
  let unlock t = M.Tvar.set t.lock false

  (* Serve every announced request in one fenced batch. Must hold the
     lock. *)
  let combine t ~proc =
    let requests = ref [] in
    Array.iteri
      (fun p slot ->
        match M.Tvar.get slot with
        | Req (ticket, op) -> requests := (p, ticket, op) :: !requests
        | Empty | Done _ -> ())
      t.slots;
    let requests = List.rev !requests in
    if requests <> [] then begin
      let ops = List.map (fun (p, _, op) -> (p, op)) requests in
      let payload =
        Onll_util.Codec.encode record_codec
          (Batch { start_idx = t.next_idx; ops })
      in
      (* One persistent fence covers the whole batch. *)
      L.append t.logs.(proc) payload;
      t.batches <- t.batches + 1;
      t.batched_ops <- t.batched_ops + List.length requests;
      (* The combiner persisted every other announcer's operation. *)
      if List.length requests > 1 && Onll_obs.Opstats.active t.ostats then
        Onll_obs.Sink.emit
          (Onll_obs.Opstats.sink t.ostats)
          ~proc
          (Onll_obs.Event.Help { helped = List.length requests - 1 });
      t.next_idx <- t.next_idx + List.length requests;
      (* Apply and publish: first the new state, then the results (a waiter
         returning implies the state it observed is durable). *)
      let state, results =
        List.fold_left
          (fun (st, acc) (p, ticket, op) ->
            let st', v = S.apply st op in
            (st', (p, ticket, v) :: acc))
          (M.Tvar.get t.mirror, [])
          requests
      in
      M.Tvar.set t.mirror state;
      List.iter
        (fun (p, ticket, v) -> M.Tvar.set t.slots.(p) (Done (ticket, v)))
        (List.rev results)
    end

  let update t op =
    A.attributed t.ostats Onll_obs.Opstats.update_done (fun () ->
        let p = M.self () in
        let ticket = t.tickets.(p) in
        t.tickets.(p) <- ticket + 1;
        M.Tvar.set t.slots.(p) (Req (ticket, op));
        let rec wait () =
          match M.Tvar.get t.slots.(p) with
          | Done (tk, v) when tk = ticket ->
              M.Tvar.set t.slots.(p) Empty;
              v
          | Done _ | Empty | Req _ ->
              if try_lock t then begin
                combine t ~proc:p;
                unlock t;
                wait ()
              end
              else begin
                M.pause ();
                wait ()
              end
        in
        let v = wait () in
        M.return_point ();
        v)

  let read t rop =
    A.attributed t.ostats Onll_obs.Opstats.read_done (fun () ->
        let v = S.read (M.Tvar.get t.mirror) rop in
        M.return_point ();
        v)

  let recover t =
    let payloads = Array.map (fun l -> snd (L.recover l)) t.logs in
    let batches = ref [] in
    Array.iter
      (fun entries ->
        List.iter
          (fun payload ->
            let (Batch { start_idx; ops }) =
              Onll_util.Codec.decode record_codec payload
            in
            batches := (start_idx, ops) :: !batches)
          entries)
      payloads;
    let batches = List.sort compare !batches in
    let state, next_idx =
      List.fold_left
        (fun (st, expect) (start_idx, ops) ->
          if start_idx <> expect then
            raise
              (Onll_core.Onll.Recovery_corrupt
                 (Printf.sprintf "flat combining: batch gap at index %d"
                    start_idx));
          ( List.fold_left (fun st (_, op) -> fst (S.apply st op)) st ops,
            expect + List.length ops ))
        (S.initial, 0)
        batches
    in
    t.next_idx <- next_idx;
    M.Tvar.set t.mirror state;
    M.Tvar.set t.lock false;
    Array.iter (fun s -> M.Tvar.set s Empty) t.slots;
    Array.fill t.tickets 0 (Array.length t.tickets) 0

  let current_state t = M.Tvar.get t.mirror
  let batch_stats t = (t.batches, t.batched_ops)
end
