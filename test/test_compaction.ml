(* The compaction property (Test_support.Compaction) on its tier-1 slice:
   counter and kv over 50 keys, ten log capacities' worth of updates, on
   every engine. The full grid — four specifications, four key counts,
   fifty capacities — runs in the soak target. Then the heap of a
   wait-free object with an idle process, and every legal stack over
   kv-50 absorbing ten capacities' worth with no explicit checkpoint. *)

module P = Test_support.Compaction

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let property engine w () =
  match P.run ~capacities:10 engine w with
  | () -> ()
  | exception Failure msg -> Alcotest.fail msg

(* The heap half on the wait-free engine: with process 0 idle after one
   update (and, in the [+views] case, one read: the state it computed is
   its view of the object), the live heap after 10k more stays within
   1.5x of the heap after 2k. Anything that pins the idle process's node
   grows it by ~19 words an update. *)
let idle_heap reads () =
  match P.idle_wait_free_live_words ~reads [ 2_000; 10_000 ] with
  | [ at_2k; at_10k ] ->
      if 2 * at_10k > 3 * at_2k then
        Alcotest.failf "%d live words after 10k updates, %d after 2k" at_10k
          at_2k
  | _ -> assert false

let test_every_stack () =
  let w = P.kv 50 in
  List.iter
    (fun stack ->
      let sim = Onll_machine.Sim.create ~max_processes:2 () in
      let module M = (val Onll_machine.Sim.machine sim) in
      let module B = Onll_stack.Make (M) (Onll_specs.Kv) in
      let capacity = P.log_capacity w ~procs:2 in
      let o =
        B.build stack
          { Onll_core.Onll.Config.default with log_capacity = capacity }
      in
      let shards =
        match stack.Onll_stack.top with
        | Onll_stack.Direct (Onll_stack.Sharded (_, n))
        | Onll_stack.Session (Onll_stack.Sharded (_, n))
        | Onll_stack.Txn n ->
            n
        | _ -> 1
      in
      (* a kv Put record takes over 64 bytes *)
      let per_proc = 10 * capacity * shards / 64 / 2 in
      let body p =
        for k = 0 to per_proc - 1 do
          match o.B.update (P.kv_put 50 ((2 * k) + p)) with
          | _ -> ()
          | exception Onll_core.Onll.Log_full log ->
              Alcotest.failf "%s: Log_full on %s after %d updates"
                (Format.asprintf "%a" Onll_stack.pp stack)
                log k
        done
      in
      match
        Onll_machine.Sim.run sim Onll_sched.Sched.Strategy.round_robin
          [| body; body |]
      with
      | Onll_sched.Sched.World.Completed -> ()
      | _ ->
          Alcotest.failf "%s did not complete"
            (Format.asprintf "%a" Onll_stack.pp stack))
    Onll_stack.legal

(* {1 The trace pruned on its own cadence}

   No explicit checkpoint, and logs too roomy for the update path to
   compact: only the cadence prunes ({!Onll_core.Onll.prune_every}). A
   counter's [Increment] returns its execution index (the base is 0, one
   index per update), so the tests know where each acknowledged
   operation lies. *)

module Onll = Onll_core.Onll
module Cs = Onll_specs.Counter

module type COUNTER =
  Onll.TXN_CAPABLE
    with type update_op = Cs.update_op
     and type read_op = Cs.read_op
     and type value = Cs.value

let counter_object engine (module M : Onll_machine.Machine_sig.S) :
    (module COUNTER) =
  match engine with
  | P.Plain -> (module Onll.Make (M) (Cs))
  | P.Wait_free -> (module Onll.Make_wait_free (M) (Cs))
  | P.Batched -> (module Onll.Make_combining (M) (Cs))

(* A two-process sim world whose sink counts checkpoints: [run] takes one
   body per process and fails unless both complete. *)
module World (E : sig
  val engine : P.engine
end)
() =
struct
  let checkpoints = ref 0

  let sink =
    Onll_obs.Sink.make
      ~handler:(fun (e : Onll_obs.Event.t) ->
        match e.Onll_obs.Event.kind with
        | Onll_obs.Event.Checkpoint _ -> incr checkpoints
        | _ -> ())
      ()

  let sim = Onll_machine.Sim.create ~sink ~max_processes:2 ()

  module C = (val counter_object E.engine (Onll_machine.Sim.machine sim))

  let obj = C.make { Onll.Config.default with log_capacity = 2 lsl 20; sink }

  let run bodies =
    match
      Onll_machine.Sim.run sim Onll_sched.Sched.Strategy.round_robin bodies
    with
    | Onll_sched.Sched.World.Completed -> ()
    | _ -> Alcotest.fail "a round did not complete"

  let crash () =
    Onll_nvm.Memory.crash (Onll_machine.Sim.memory sim)
      ~policy:Onll_nvm.Crash_policy.Drop_all
end

(* Reachable nodes stay bounded while the updates grow tenfold, 2k to
   20k, with no checkpoint; every acknowledged identity, pruned ones
   included, answers [was_linearized], live and after a crash. *)
let cadence_bounded engine () =
  let open World (struct
    let engine = engine
  end)
  () in
  let acked = ref [] and peak = ref 0 in
  let body _ =
    for i = 1 to 500 do
      let id, idx = C.update_with_id obj Cs.Increment in
      acked := (id, idx) :: !acked;
      if i mod 50 = 0 then peak := max !peak (List.length (C.trace_nodes obj))
    done
  in
  let grow_to total =
    while List.length !acked < total do
      run [| body; body |]
    done;
    !peak
  in
  let at_2k = grow_to 2_000 in
  let at_20k = grow_to 20_000 in
  check_int "no checkpoint ran" 0 !checkpoints;
  let bound = Onll.prune_every + 16 in
  if at_2k > bound || at_20k > bound then
    Alcotest.failf "%d reachable nodes by 2k updates, %d by 20k (bound %d)"
      at_2k at_20k bound;
  let base, _ = C.trace_base obj in
  let pruned = List.filter (fun (_, idx) -> idx <= base) !acked in
  if List.length pruned < 18_000 then
    Alcotest.failf "only %d of 20k identities pruned (base %d)"
      (List.length pruned) base;
  let all_linearized stage =
    List.iter
      (fun (id, _) ->
        if not (C.was_linearized obj id) then
          Alcotest.failf "%s not linearized %s"
            (Format.asprintf "%a" Onll.pp_op_id id)
            stage)
      !acked
  in
  all_linearized "live";
  crash ();
  C.recover obj;
  all_linearized "after recovery"

(* The stale tier (budget 7, so a solo run drains at no multiple of the
   cadence), in rounds run solo and by two processes in turn: the base is
   always a durable node, so no acknowledgement awaiting its fence lies
   below it, checked every 5 updates; and a Drop_all crash at the end of
   each round voids exactly the acknowledgements pending then
   ([lost_acked]), each above the base, while every other acknowledged
   identity, pruned ones included, stays linearized. *)
let cadence_stale engine () =
  let open World (struct
    let engine = engine
  end)
  () in
  let acked = Hashtbl.create 4096 in
  let oldest_flag () =
    match C.trace_nodes obj with
    | (_, flag, _) :: _ -> flag
    | [] -> Alcotest.fail "empty trace"
  in
  let body _ =
    for i = 1 to 700 do
      let id, idx = C.update_stale obj ~budget:7 Cs.Increment in
      Hashtbl.replace acked id idx;
      if i mod 5 = 0 && oldest_flag () <> Onll_core.Trace_intf.durable then
        Alcotest.failf "the base at %d is not durable" (fst (C.trace_base obj))
    done
  in
  let pruned = ref 0 in
  for round = 1 to 6 do
    (* solo, the acknowledgements pile up to the budget before a drain;
       concurrent, most updates find the other's in flight and drain *)
    run (if round mod 2 = 1 then [| body; ignore |] else [| body; body |]);
    let pending = C.pending_ops obj in
    let base, _ = C.trace_base obj in
    Hashtbl.iter
      (fun id idx ->
        if idx <= base then begin
          incr pruned;
          if not (C.was_linearized obj id) then
            Alcotest.failf "round %d: pruned %s not linearized" round
              (Format.asprintf "%a" Onll.pp_op_id id)
        end)
      acked;
    crash ();
    let report = C.recover_report obj in
    let lost = report.Onll.Recovery_report.lost_acked in
    check_int
      (Printf.sprintf "round %d: lost_acked are the pending acks" round)
      pending (List.length lost);
    List.iter
      (fun id ->
        match Hashtbl.find_opt acked id with
        | Some idx when idx > base -> Hashtbl.remove acked id
        | Some idx ->
            Alcotest.failf "round %d: lost %s at %d, at or below the base %d"
              round
              (Format.asprintf "%a" Onll.pp_op_id id)
              idx base
        | None -> Alcotest.failf "round %d: lost an unacknowledged id" round)
      lost;
    Hashtbl.iter
      (fun id _ ->
        if not (C.was_linearized obj id) then
          Alcotest.failf "round %d: %s not linearized after recovery" round
            (Format.asprintf "%a" Onll.pp_op_id id))
      acked
  done;
  check_int "no checkpoint ran" 0 !checkpoints;
  if !pruned = 0 then Alcotest.fail "the stale tier never pruned"

(* A staged transaction sub-operation holds the prune below it until its
   coordinator finishes it: process 0 stages an increment, process 1's
   1,100 updates then leave the base below the staged node, and after the
   finish 1,100 more move it past. *)
let cadence_staged engine () =
  let open World (struct
    let engine = engine
  end)
  () in
  let staged = ref None in
  let updates _ =
    for _ = 1 to 1_100 do
      ignore (C.update obj Cs.Increment)
    done
  in
  run
    [|
      (fun _ ->
        let seq = C.reserve_seq obj in
        staged := Some (C.stage_txn obj ~seq ~payload:"txn" Cs.Increment));
      ignore;
    |];
  let s = Option.get !staged in
  run [| ignore; updates |];
  let base, _ = C.trace_base obj in
  if base >= C.staged_idx s then
    Alcotest.failf "the base %d passed the staged node at %d" base
      (C.staged_idx s);
  run [| (fun _ -> ignore (C.finish_txn obj s)); ignore |];
  run [| ignore; updates |];
  let base, _ = C.trace_base obj in
  if base <= C.staged_idx s then
    Alcotest.failf "the base %d stayed below the finished node at %d" base
      (C.staged_idx s)

(* A failed persist that later durable nodes cover is finished by the
   prune that passes it: on the wait-free engine, process 0's update
   fails under a total flush storm and process 0 then idles while process
   1 updates; its failed cell, which links forward to every newer cell,
   must not pin them, so the live heap grows by less than 10 words an
   update from 2k updates to 20k (51k words in all here; ~27 words an
   update when the cell pins the trace). Its operation is durable (a
   later window persisted it) and stays linearized across a crash. *)
let test_cadence_failed () =
  let open World (struct
    let engine = P.Wait_free
  end)
  () in
  let storm =
    Onll_faults.Faults.install
      (Onll_machine.Sim.memory sim)
      {
        Onll_faults.Faults.Plan.none with
        seed = 7;
        flush_fail_prob = 1.0;
        max_consecutive_transients = 1_000_000;
      }
  in
  run
    [|
      (fun _ ->
        match C.update obj Cs.Increment with
        | exception Onll_nvm.Memory.Transient_fault _ -> ()
        | _ -> Alcotest.fail "the storm never bit");
      ignore;
    |];
  Onll_faults.Faults.remove storm;
  let updates = ref 0 in
  let live_words_at n =
    run
      [|
        ignore;
        (fun _ ->
          while !updates < n do
            ignore (C.update obj Cs.Increment);
            incr updates
          done);
      |];
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let at_2k = live_words_at 2_000 in
  let at_20k = live_words_at 20_000 in
  if at_20k - at_2k > 10 * 18_000 then
    Alcotest.failf "%d live words after 20k updates, %d after 2k" at_20k at_2k;
  let failed_id = { Onll.id_proc = 0; id_seq = 0 } in
  check_bool "the failed operation is linearized" true
    (C.was_linearized obj failed_id);
  crash ();
  C.recover obj;
  check_bool "and survives a crash" true (C.was_linearized obj failed_id)

(* The served heap follows the state, not the log's room: two
   exactly-once clients submit 20k updates each to a service admitting 2
   clients (an object log of ~64 KiB) and to one admitting 10,000 (~533
   KiB), and the peak of the live words sampled every 500 submits is
   within 3x between the two. Without the cadence the trace lived until
   the next compaction, and the larger log's peak was 5.4x the smaller's
   (24.0k against 130.5k words); what is left of the gap is the log's
   in-memory account of its live records, which follows its room. *)
let test_served_peak () =
  let peak max_clients =
    List.fold_left max 0
      (P.served_live_words ~max_clients (List.init 40 (fun i -> (i + 1) * 500)))
  in
  let small = peak 2 and large = peak 10_000 in
  if large > 3 * small then
    Alcotest.failf "peak live words %d at ~533 KiB of log, %d at ~64 KiB"
      large small

(* {1 Restarting checkpoints under crashes}

   A kv object over 50 keys on a 1 MiB log, with a checkpoint + prune
   every 200 updates: the log's dead prefix grows until a checkpoint
   finds its record and one 64 KiB reserve there and restarts the log at
   its front ([Plog.checkpoint]). The updates run in epochs, each cut by
   a crash under the given policy, until 6,000 updates and three
   restarts are done: three epochs in four crash at a seeded step, the
   fourth a seeded 0-19 steps into the next checkpoint that finds such a
   dead prefix, so crashes land inside restarts. After each crash the
   recovery is clean and not degraded, every acknowledged identity is
   linearized, and every [Get] returns what a shadow map holds (the
   update in flight at the crash may or may not have taken effect). *)
module Kv = Onll_specs.Kv

let restart_crashes policy () =
  let sim = Onll_machine.Sim.create ~max_processes:1 ~crash_policy:policy () in
  let module M = (val Onll_machine.Sim.machine sim) in
  let module C = Onll.Make (M) (Kv) in
  let obj = C.make { Onll.Config.default with log_capacity = 1 lsl 20 } in
  let keys = 50 and total = 6_000 and every = 200 in
  let key k = Printf.sprintf "key%02d" k in
  let shadow = Array.make keys None and acked = ref [] in
  let updates = ref 0 and restarts = ref 0 in
  let crashes = ref 0 and in_restarts = ref 0 in
  let in_flight = ref None in
  let rng = Random.State.make [| 47 |] in
  (* the step to crash at, and a crash armed to land so many steps on
     (the world counts steps across runs) *)
  let crash_at = ref max_int and arm = ref None and armed = ref false in
  let strategy (view : Onll_sched.Sched.Strategy.view) =
    Option.iter
      (fun n ->
        crash_at := view.steps () + n;
        arm := None)
      !arm;
    if view.steps () >= !crash_at then Onll_sched.Sched.Strategy.Crash_now
    else Onll_sched.Sched.Strategy.round_robin view
  in
  (* The durable header's head, read from the region without a machine
     step: the newest of the two slots [seq | head | bound | crc]. *)
  let head () =
    let mem = Onll_machine.Sim.memory sim in
    let name =
      List.find (fun n -> String.ends_with ~suffix:".plog.0" n)
        (Onll_nvm.Memory.region_names mem)
    in
    let s =
      Onll_nvm.Memory.Region.durable_snapshot
        (Option.get (Onll_nvm.Memory.find_region mem name))
    in
    let slot off = (String.get_int64_le s off, String.get_int64_le s (off + 8)) in
    let (sa, ha), (sb, hb) = (slot 0, slot 32) in
    Int64.to_int (if sa >= sb then ha else hb)
  in
  let body _ =
    while !updates < total do
      let k = !updates * 7 mod keys and v = string_of_int !updates in
      in_flight := Some (k, v);
      let id, _ = C.update_with_id obj (Kv.Put (key k, v)) in
      in_flight := None;
      shadow.(k) <- Some v;
      acked := id :: !acked;
      incr updates;
      if !updates mod every = 0 then begin
        (* a checkpoint record here is ~1.3 KB *)
        if !crash_at = max_int && head () - 64 >= 65_536 + 2_000 then begin
          arm := Some (Random.State.int rng 20);
          armed := true
        end;
        C.prune obj ~below:(C.checkpoint obj);
        armed := false;
        if head () = 64 then incr restarts
      end
    done
  in
  let what () =
    Printf.sprintf "%s, crash %d at update %d"
      (Onll_nvm.Crash_policy.to_string policy)
      !crashes !updates
  in
  while !updates < total do
    crash_at := max_int;
    if !crashes mod 4 < 3 then arm := Some (Random.State.int rng 4_000);
    match Onll_machine.Sim.run sim strategy [| body |] with
    | Onll_sched.Sched.World.Completed -> ()
    | Onll_sched.Sched.World.Crashed ->
        incr crashes;
        if !armed then incr in_restarts;
        armed := false;
        let report = C.recover_report obj in
        if not (Onll.Recovery_report.clean report) then
          Alcotest.failf "%s: the recovery is not clean" (what ());
        check_bool (what () ^ ": not degraded") false (C.degraded obj);
        (match !in_flight with
        | Some (k, v) -> (
            in_flight := None;
            match C.read obj (Kv.Get (key k)) with
            | Kv.Found (Some got) when got = v -> shadow.(k) <- Some v
            | _ -> ())
        | None -> ());
        List.iter
          (fun id ->
            if not (C.was_linearized obj id) then
              Alcotest.failf "%s: %s not linearized" (what ())
                (Format.asprintf "%a" Onll.pp_op_id id))
          !acked;
        Array.iteri
          (fun k v ->
            if C.read obj (Kv.Get (key k)) <> Kv.Found v then
              Alcotest.failf "%s: Get %s differs from the shadow" (what ())
                (key k))
          shadow
    | _ -> Alcotest.failf "%s: the run stopped" (what ())
  done;
  if !restarts < 3 then Alcotest.failf "%s: %d restarts" (what ()) !restarts;
  if !in_restarts < 3 then
    Alcotest.failf "%s: %d crashes inside a restart" (what ()) !in_restarts

let () =
  Alcotest.run "compaction"
    [
      ( "property",
        List.concat_map
          (fun engine ->
            List.map
              (fun w ->
                Alcotest.test_case
                  (Printf.sprintf "%s %s" (P.engine_name engine)
                     (P.workload_name w))
                  `Quick (property engine w))
              [ P.counter; P.kv 50 ])
          P.engines );
      ( "heap",
        [
          Alcotest.test_case "wait-free, an idle process" `Quick
            (idle_heap false);
          Alcotest.test_case "wait-free+views, an idle process" `Quick
            (idle_heap true);
        ] );
      ( "stacks",
        [
          Alcotest.test_case "every legal stack over kv-50" `Quick
            test_every_stack;
        ] );
      ( "trace cadence",
        List.concat_map
          (fun engine ->
            let name = P.engine_name engine in
            [
              Alcotest.test_case (name ^ ": bounded, no checkpoint") `Quick
                (cadence_bounded engine);
              Alcotest.test_case (name ^ ": stale tier") `Quick
                (cadence_stale engine);
              Alcotest.test_case (name ^ ": a staged sub-operation") `Quick
                (cadence_staged engine);
            ])
          P.engines
        @ [
            Alcotest.test_case "wait-free: a failed persist pins nothing"
              `Quick test_cadence_failed;
            Alcotest.test_case "served peak follows the state" `Quick
              test_served_peak;
          ] );
      ( "restart",
        List.map
          (fun policy ->
            Alcotest.test_case
              (Printf.sprintf "kv on 1 MiB, crashes (%s)"
                 (Onll_nvm.Crash_policy.to_string policy))
              `Quick (restart_crashes policy))
          Onll_nvm.Crash_policy.[ Drop_all; Persist_all; Random 1 ] );
    ]
