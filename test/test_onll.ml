open Onll_machine
open Onll_sched
module Cs = Onll_specs.Counter
module F1 = Onll_scenarios.Figure1

let check = Alcotest.check

(* Fresh counter object on a fresh simulated machine. Tests that need the
   machine module instantiate inline instead. *)

(* {1 Sequential semantics} *)

let test_sequential_counter () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  check Alcotest.int "read initial" 0 (C.read obj Cs.Get);
  check Alcotest.int "first increment" 1 (C.update obj Cs.Increment);
  check Alcotest.int "second increment" 2 (C.update obj Cs.Increment);
  check Alcotest.int "add" 7 (C.update obj (Cs.Add 5));
  check Alcotest.int "read" 7 (C.read obj Cs.Get)

let test_sequential_kv () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Onll_specs.Kv) in
  let obj = C.make Onll_core.Onll.Config.default in
  let open Onll_specs.Kv in
  check Alcotest.bool "put fresh" true
    (C.update obj (Put ("k", "v1")) = Previous None);
  check Alcotest.bool "put replace" true
    (C.update obj (Put ("k", "v2")) = Previous (Some "v1"));
  check Alcotest.bool "get" true (C.read obj (Get "k") = Found (Some "v2"));
  check Alcotest.bool "delete" true
    (C.update obj (Delete "k") = Previous (Some "v2"));
  check Alcotest.bool "get after delete" true
    (C.read obj (Get "k") = Found None)

let test_sequential_queue () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Onll_specs.Queue_spec) in
  let obj = C.make Onll_core.Onll.Config.default in
  let open Onll_specs.Queue_spec in
  check Alcotest.bool "deq empty" true (C.update obj Dequeue = Taken None);
  ignore (C.update obj (Enqueue 1));
  ignore (C.update obj (Enqueue 2));
  check Alcotest.bool "peek" true (C.read obj Peek = Taken (Some 1));
  check Alcotest.bool "fifo" true (C.update obj Dequeue = Taken (Some 1));
  check Alcotest.bool "fifo 2" true (C.update obj Dequeue = Taken (Some 2))

(* {1 Fence complexity (Theorem 5.1)} *)

let test_one_fence_per_update_zero_per_read () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  for i = 1 to 20 do
    ignore (C.update obj Cs.Increment);
    check Alcotest.int "updates: exactly one fence each" i
      (M.persistent_fences ())
  done;
  for _ = 1 to 50 do
    ignore (C.read obj Cs.Get)
  done;
  check Alcotest.int "reads: zero fences" 20 (M.persistent_fences ())

let test_fence_bound_concurrent () =
  (* Under any schedule, total persistent fences <= total updates (helping
     can only reduce the count below 1 per op, never above). *)
  for seed = 1 to 10 do
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make (M) (Cs) in
    let obj = C.make Onll_core.Onll.Config.default in
    let procs =
      Array.init 4 (fun _ ->
          fun _ ->
            for _ = 1 to 5 do
              ignore (C.update obj Cs.Increment);
              ignore (C.read obj Cs.Get)
            done)
    in
    let outcome = Sim.run sim (Sched.Strategy.random ~seed) procs in
    check Alcotest.bool "completed" true (outcome = Sched.World.Completed);
    check Alcotest.int "one fence per update, none per read" 20
      (M.persistent_fences ())
  done

(* {1 Concurrent correctness} *)

let test_concurrent_increments_return_distinct_values () =
  let sim = Sim.create ~max_processes:4 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let results = ref [] in
  let procs =
    Array.init 4 (fun _ ->
        fun _ ->
          for _ = 1 to 5 do
            (* bind first: the ref read must happen after the update *)
            let v = C.update obj Cs.Increment in
            results := v :: !results
          done)
  in
  ignore (Sim.run sim (Sched.Strategy.random ~seed:31) procs);
  check
    Alcotest.(list int)
    "increments return 1..20 exactly once"
    (List.init 20 (fun i -> i + 1))
    (List.sort compare !results);
  check Alcotest.int "final value" 20 (C.read obj Cs.Get)

let test_reads_monotone_per_process () =
  (* A process's successive reads can never observe the counter going
     backwards. *)
  let sim = Sim.create ~max_processes:4 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let violation = ref false in
  let procs =
    Array.init 4 (fun p ->
        fun _ ->
          if p = 0 then
            for _ = 1 to 10 do
              ignore (C.update obj Cs.Increment)
            done
          else begin
            let last = ref (-1) in
            for _ = 1 to 10 do
              let v = C.read obj Cs.Get in
              if v < !last then violation := true;
              last := v
            done
          end)
  in
  for seed = 1 to 10 do
    ignore (Sim.run sim (Sched.Strategy.random ~seed) procs)
  done;
  check Alcotest.bool "monotone reads" false !violation

(* {1 Figure 1 executions} *)

let test_figure1_execution1 () =
  let e = F1.execution1 () in
  check Alcotest.int "update" 1 e.F1.e1_update_returned;
  check Alcotest.int "read" 1 e.F1.e1_read_returned;
  check
    Alcotest.(list (pair int bool))
    "trace" [ (0, true); (1, true) ] e.F1.e1_trace

let test_figure1_execution2 () =
  let e = F1.execution2 () in
  check Alcotest.int "r1 sees old state" 1 e.F1.e2_r1;
  check Alcotest.int "r2 sees new state" 2 e.F1.e2_r2;
  check Alcotest.int "update returns new value" 2 e.F1.e2_update_returned

let test_figure1_execution3 () =
  let e = F1.execution3 () in
  check Alcotest.int "helper returns 3" 3 e.F1.e3_p2_returned;
  check Alcotest.int "helper persisted two ops" 2 e.F1.e3_p2_log_ops;
  check Alcotest.int "reader sees 3" 3 e.F1.e3_reader_after_p2;
  check Alcotest.int "helped op returns 2" 2 e.F1.e3_p1_returned

let test_figure1_execution4 () =
  let e = F1.execution4 () in
  check Alcotest.int "reader during: 0" 0 e.F1.e4_reader_during;
  check Alcotest.int "recovered value: 2" 2 e.F1.e4_recovered_value;
  check Alcotest.bool "p1 linearized" true e.F1.e4_p1_linearized;
  check Alcotest.bool "p2 linearized" true e.F1.e4_p2_linearized;
  check Alcotest.bool "p3 lost" false e.F1.e4_p3_linearized

(* {1 Proposition 5.9: the read anomaly}

   A reader traverses the live trace, not a snapshot: while it walks past
   unavailable nodes, a later node's flag may get set behind it, so the
   node it settles on may no longer be the newest available one by the time
   it returns. Prop 5.9 places such a read's linearization point at its
   traversal of the tail; the history stays linearizable. This test builds
   exactly that race and checks both the anomalous return value and the
   checker's acceptance. *)

let test_prop59_read_anomaly () =
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let module H = Onll_histcheck.Histcheck.Make (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let recorder = H.Recorder.create () in
  let read_v = ref (-1) in
  let procs =
    [|
      (fun _ ->
        let uid = H.Recorder.invoke recorder ~proc:0 (H.Update Cs.Increment) in
        let v = C.update obj Cs.Increment in
        H.Recorder.return_ recorder uid v);
      (fun _ ->
        let uid = H.Recorder.invoke recorder ~proc:1 (H.Update Cs.Increment) in
        let v = C.update obj Cs.Increment in
        H.Recorder.return_ recorder uid v);
      (fun _ ->
        let uid = H.Recorder.invoke recorder ~proc:2 (H.Read Cs.Get) in
        let v = C.read obj Cs.Get in
        read_v := v;
        H.Recorder.return_ recorder uid v);
    |]
  in
  let script =
    Sched.Strategy.script
      [
        (* p0 inserts n1 and parks before touching its log: n1 stays
           unavailable *)
        Sched.Strategy.Run_until (0, fun l -> l = Sched.Prim "pm.store64");
        (* p1 inserts n2 and persists it (helping n1), parking just before
           setting n2's available flag *)
        Sched.Strategy.run_until_pfence 1;
        Sched.Strategy.Run_steps (1, 1);
        (* the reader walks past n2 (flag still unset): start, read tail,
           read n2.available, read n2.next — paused before n1.available *)
        Sched.Strategy.Run_steps (2, 4);
        (* n2's flag is set BEHIND the reader *)
        Sched.Strategy.Run_steps (1, 1);
        (* the reader finishes its traversal: it settles on the sentinel *)
        Sched.Strategy.Run_to_completion 2;
        Sched.Strategy.Run_to_completion 1;
        Sched.Strategy.Run_to_completion 0;
      ]
  in
  let outcome = Sim.run sim script procs in
  check Alcotest.bool "completed" true (outcome = Sched.World.Completed);
  (* the anomaly: the read returned 0 (the sentinel) although value 2 was
     available before it responded *)
  check Alcotest.int "anomalous read" 0 !read_v;
  check Alcotest.int "final value" 2 (C.read obj Cs.Get);
  (* ... and the history is nonetheless durably linearizable *)
  (match H.check (H.Recorder.history recorder) with
  | H.Durably_linearizable _ -> ()
  | H.Violation m -> Alcotest.fail ("prop 5.9 history rejected: " ^ m)
  | H.Budget_exhausted -> Alcotest.fail "budget")

(* {1 Recovery} *)

let test_recover_empty () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  C.recover obj;
  check Alcotest.int "empty recovery = initial" 0 (C.read obj Cs.Get)

let test_recover_idempotent () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  for _ = 1 to 5 do
    ignore (C.update obj Cs.Increment)
  done;
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  check Alcotest.int "after first recovery" 5 (C.read obj Cs.Get);
  C.recover obj;
  check Alcotest.int "recovery idempotent" 5 (C.read obj Cs.Get)

let test_repeated_crashes () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let total = ref 0 in
  for round = 1 to 5 do
    let procs =
      Array.init 2 (fun _ ->
          fun _ ->
            for _ = 1 to 10 do
              ignore (C.update obj Cs.Increment)
            done)
    in
    let outcome =
      Sim.run sim
        (Sched.Strategy.random_with_crash ~seed:round ~crash_at_step:50)
        procs
    in
    check Alcotest.bool "crashed" true (outcome = Sched.World.Crashed);
    C.recover obj;
    let v = C.read obj Cs.Get in
    check Alcotest.bool "value never decreases" true (v >= !total);
    total := v
  done

let test_values_consistent_after_recovery () =
  (* The value an update returned before the crash must match its position
     in the recovered history: re-reading gives the number of recovered
     increments, and every completed increment's return value is <= that. *)
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let returned = ref [] in
  let procs =
    Array.init 3 (fun _ ->
        fun _ ->
          for _ = 1 to 5 do
            let v = C.update obj Cs.Increment in
            returned := v :: !returned
          done)
  in
  ignore
    (Sim.run sim
       (Sched.Strategy.random_with_crash ~seed:5 ~crash_at_step:120)
       procs);
  C.recover obj;
  let v = C.read obj Cs.Get in
  List.iter
    (fun r -> check Alcotest.bool "completed value within range" true (r <= v))
    !returned;
  check Alcotest.bool "all completed counted" true
    (List.length !returned <= v)

let test_post_recovery_updates_continue () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  ignore (C.update obj (Cs.Add 10));
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  check Alcotest.int "recovered" 10 (C.read obj Cs.Get);
  check Alcotest.int "continue" 11 (C.update obj Cs.Increment);
  (* ... and that update is itself durable *)
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  check Alcotest.int "second recovery" 11 (C.read obj Cs.Get)

let test_recovery_under_persist_all () =
  (* Persist_all means even unfenced appends may land; recovery must accept
     any such prefix and produce a consistent state. *)
  let sim =
    Sim.create ~max_processes:3
      ~crash_policy:Onll_nvm.Crash_policy.Persist_all ()
  in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let procs =
    Array.init 3 (fun _ ->
        fun _ ->
          for _ = 1 to 4 do
            ignore (C.update obj Cs.Increment)
          done)
  in
  ignore
    (Sim.run sim
       (Sched.Strategy.random_with_crash ~seed:9 ~crash_at_step:60)
       procs);
  C.recover obj;
  let v = C.read obj Cs.Get in
  check Alcotest.bool "recovered value sane" true (v >= 0 && v <= 12)

(* {1 Detectability} *)

let test_detectable_pre_append_op_is_lost () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let script =
    Sched.Strategy.script
      [
        (* park before the op touches the log, then crash *)
        Sched.Strategy.Run_until (0, fun l -> l = Sched.Prim "pm.store64");
        Sched.Strategy.Crash_here;
      ]
  in
  ignore
    (Sim.run sim script
       [| (fun _ -> ignore (C.update_detectable obj ~seq:0 Cs.Increment)) |]);
  C.recover obj;
  check Alcotest.bool "not linearized" false
    (C.was_linearized obj { Onll_core.Onll.id_proc = 0; id_seq = 0 })

let test_detectable_post_fence_op_survives () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.run_until_pfence 0;
        Sched.Strategy.Run_steps (0, 1);  (* fence executes *)
        Sched.Strategy.Crash_here;  (* crash before the available flag *)
      ]
  in
  ignore
    (Sim.run sim script
       [| (fun _ -> ignore (C.update_detectable obj ~seq:0 Cs.Increment)) |]);
  C.recover obj;
  check Alcotest.bool "linearized though never returned" true
    (C.was_linearized obj { Onll_core.Onll.id_proc = 0; id_seq = 0 });
  check Alcotest.int "effect visible" 1 (C.read obj Cs.Get)

let test_detectable_seq_reuse_rejected () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  ignore (C.update_detectable obj ~seq:0 Cs.Increment);
  Alcotest.check_raises "reuse"
    (Invalid_argument "Onll.update_detectable: sequence number reused")
    (fun () -> ignore (C.update_detectable obj ~seq:0 Cs.Increment))

let test_detectable_seq_reuse_no_side_effects () =
  (* The documented misuse contract: a duplicate [seq] — same payload (an
     at-least-once retry) or a different one (an identity collision) — is
     rejected before any effect. State, logs, the reused identity's
     was_linearized answer and the fence count must all be exactly as if
     the call never happened, and a fresh seq must still be accepted. *)
  let module Kv = Onll_specs.Kv in
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Kv) in
  let obj = C.make Onll_core.Onll.Config.default in
  ignore (C.update_detectable obj ~seq:0 (Kv.Put ("k", "original")));
  let live_bytes () =
    List.map
      (fun (l : Onll_core.Onll.Snapshot.log) -> l.live_bytes)
      (C.snapshot obj).Onll_core.Onll.Snapshot.logs
  in
  let logs_before = live_bytes () in
  let fences_before = (Sim.stats sim).Onll_nvm.Memory.Stats.persistent_fences in
  let reuse payload =
    Alcotest.check_raises "reuse rejected"
      (Invalid_argument "Onll.update_detectable: sequence number reused")
      (fun () -> ignore (C.update_detectable obj ~seq:0 payload))
  in
  reuse (Kv.Put ("k", "original"));
  (* same payload: a retry *)
  reuse (Kv.Put ("k", "forged"));
  (* different payload: a collision *)
  reuse (Kv.Delete "k");
  check Alcotest.bool "state untouched" true
    (C.read obj (Kv.Get "k") = Kv.Found (Some "original"));
  check Alcotest.(list int) "logs untouched" logs_before (live_bytes ());
  check Alcotest.int "no persistence work spent on rejections" fences_before
    (Sim.stats sim).Onll_nvm.Memory.Stats.persistent_fences;
  check Alcotest.bool "the reused identity's answer is unchanged" true
    (C.was_linearized obj { Onll_core.Onll.id_proc = 0; id_seq = 0 });
  (* the process is not wedged: the next fresh seq is accepted *)
  ignore (C.update_detectable obj ~seq:1 (Kv.Put ("k2", "v2")));
  check Alcotest.bool "fresh seq applied" true
    (C.read obj (Kv.Get "k2") = Kv.Found (Some "v2"))

let test_seq_numbers_advance_past_recovery () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let id1, _ = C.update_with_id obj Cs.Increment in
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  let id2, _ = C.update_with_id obj Cs.Increment in
  check Alcotest.bool "new id differs from recovered id" true (id1 <> id2)

(* {1 Local views (§8)}

   The paper's per-process local views are realised as one published
   state per trace node: reads and updates compute from the newest one. *)

let test_published_same_results () =
  (* Checked against the model: sequentially, each result is the counter's;
     concurrently, on schedule-independent facts: increments return a
     permutation of 1..n and the final value is n. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  check
    Alcotest.(list int)
    "sequential results = the model's"
    (List.concat_map (fun i -> [ i; i ]) (List.init 10 succ))
    (List.concat_map
       (fun _ ->
         let u = C.update obj Cs.Increment in
         [ u; C.read obj Cs.Get ])
       (List.init 10 Fun.id));
  for seed = 1 to 8 do
    let sim = Sim.create ~max_processes:3 () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make (M) (Cs) in
    let obj = C.make Onll_core.Onll.Config.default in
    let results = ref [] in
    let procs =
      Array.init 3 (fun _ ->
          fun _ ->
            for _ = 1 to 5 do
              let v = C.update obj Cs.Increment in
              results := v :: !results
            done)
    in
    ignore (Sim.run sim (Sched.Strategy.random ~seed) procs);
    check
      Alcotest.(list int)
      "increments are a permutation of 1..15"
      (List.init 15 (fun i -> i + 1))
      (List.sort compare !results);
    check Alcotest.int "final value" 15 (C.read obj Cs.Get)
  done

let test_published_reset_by_crash () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  for _ = 1 to 5 do
    ignore (C.update obj Cs.Increment)
  done;
  ignore (C.read obj Cs.Get);
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  (* the published states lived in the volatile trace recovery replaced *)
  check Alcotest.int "views reset, state correct" 5 (C.read obj Cs.Get);
  check Alcotest.int "updates continue" 6 (C.update obj Cs.Increment)

(* {1 Checkpointing and reclamation (§8)} *)

let test_checkpoint_compacts_log () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  for _ = 1 to 20 do
    ignore (C.update obj Cs.Increment)
  done;
  let live_before = List.fold_left (fun a (_, l, _) -> a + l) 0 ((List.map (fun l -> Onll_core.Onll.Snapshot.(l.log_name, l.live_bytes, l.used_bytes)) (C.snapshot obj).Onll_core.Onll.Snapshot.logs)) in
  let upto = C.checkpoint obj in
  check Alcotest.int "checkpoint covers all" 20 upto;
  let live_after = List.fold_left (fun a (_, l, _) -> a + l) 0 ((List.map (fun l -> Onll_core.Onll.Snapshot.(l.log_name, l.live_bytes, l.used_bytes)) (C.snapshot obj).Onll_core.Onll.Snapshot.logs)) in
  check Alcotest.bool "log shrank" true (live_after < live_before);
  check Alcotest.int "state unchanged" 20 (C.read obj Cs.Get)

let test_recovery_from_checkpoint () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  for _ = 1 to 10 do
    ignore (C.update obj Cs.Increment)
  done;
  ignore (C.checkpoint obj);
  for _ = 1 to 3 do
    ignore (C.update obj Cs.Increment)
  done;
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  check Alcotest.int "checkpoint + tail ops" 13 (C.read obj Cs.Get);
  let base_idx, _ = C.trace_base obj in
  check Alcotest.int "trace starts at the checkpoint" 10 base_idx;
  check Alcotest.int "updates continue" 14 (C.update obj Cs.Increment)

let test_detectability_past_checkpoint () =
  (* Operations summarised by a checkpoint are still detectable via the
     sequence floors carried in the materialised state. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let id, _ = C.update_with_id obj Cs.Increment in
  ignore (C.checkpoint obj);
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  check Alcotest.bool "pre-checkpoint op detectable" true
    (C.was_linearized obj id);
  check Alcotest.bool "never-invoked op not detectable" false
    (C.was_linearized obj { Onll_core.Onll.id_proc = 0; id_seq = 99 })

let test_prune_keeps_reads_correct () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  for _ = 1 to 10 do
    ignore (C.update obj Cs.Increment)
  done;
  let nodes_before = List.length (C.trace_nodes obj) in
  C.prune obj ~below:8;
  let nodes_after = List.length (C.trace_nodes obj) in
  check Alcotest.bool "trace shrank" true (nodes_after < nodes_before);
  check Alcotest.int "reads correct after prune" 10 (C.read obj Cs.Get);
  check Alcotest.int "updates correct after prune" 11
    (C.update obj Cs.Increment)

let test_checkpoint_prune_crash_cycle () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  for round = 1 to 4 do
    let procs =
      Array.init 2 (fun _ ->
          fun _ ->
            for _ = 1 to 5 do
              ignore (C.update obj Cs.Increment)
            done)
    in
    ignore (Sim.run sim (Sched.Strategy.random ~seed:round) procs);
    ignore (C.checkpoint obj);
    C.prune obj ~below:((C.snapshot obj).Onll_core.Onll.Snapshot.latest_available_idx);
    Onll_nvm.Memory.crash (Sim.memory sim)
      ~policy:Onll_nvm.Crash_policy.Drop_all;
    C.recover obj;
    check Alcotest.int "each round fully durable" (round * 10)
      (C.read obj Cs.Get)
  done

(* {1 Misc} *)

let test_two_objects_independent () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let a = C.make Onll_core.Onll.Config.default in
  let b = C.make Onll_core.Onll.Config.default in
  ignore (C.update a (Cs.Add 3));
  ignore (C.update b (Cs.Add 4));
  check Alcotest.int "a" 3 (C.read a Cs.Get);
  check Alcotest.int "b" 4 (C.read b Cs.Get)

(* A full log never surfaces Plog.Full: the update compacts (checkpoint,
   drop, trace prune, Plog relocate) while the next checkpoint still
   fits, so a workload far exceeding the raw capacity completes — and the
   result is still durable across a crash. Counter on a 256-byte log, and
   kv at 8, 10 and 50 keys (1-byte values, no explicit checkpoint) on the
   default 64 KiB log, where a checkpoint is many records long. *)
let log_full_auto_compacts (type u v) (module S : Onll_core.Spec.S
    with type update_op = u and type read_op = v) ~log_capacity ~updates
    ~(op : int -> u) ~(read : v) ~expected () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (S) in
  let obj = C.make { Onll_core.Onll.Config.default with log_capacity } in
  for i = 1 to updates do
    match C.update obj (op i) with
    | _ -> ()
    | exception Onll_core.Onll.Log_full _ ->
        Alcotest.failf "%s: Log_full after %d updates" S.name (i - 1)
  done;
  let value () = Format.asprintf "%a" S.pp_value (C.read obj read) in
  check Alcotest.string (S.name ^ ": all updates applied") expected (value ());
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  check Alcotest.string (S.name ^ ": durable across compactions") expected
    (value ())

let test_log_full_auto_compacts () =
  log_full_auto_compacts
    (module Cs)
    ~log_capacity:256 ~updates:100
    ~op:(fun _ -> Cs.Increment)
    ~read:Cs.Get ~expected:"100" ();
  List.iter
    (fun keys ->
      log_full_auto_compacts
        (module Onll_specs.Kv)
        ~log_capacity:Onll_core.Onll.Config.default.log_capacity
        ~updates:20_000
        ~op:(fun i ->
          Onll_specs.Kv.Put (string_of_int (i mod keys), "v"))
        ~read:Onll_specs.Kv.Size
        ~expected:
          (Format.asprintf "%a" Onll_specs.Kv.pp_value
             (Onll_specs.Kv.Count keys))
        ())
    [ 8; 10; 50 ]

(* When even a checkpoint record cannot fit, degradation is graceful but
   terminal: the typed Onll.Log_full, not the transient Plog.Full. *)
let test_log_full_terminal_when_checkpoint_cannot_fit () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make { Onll_core.Onll.Config.default with log_capacity = 80 } in
  check Alcotest.bool "typed Log_full" true
    (match
       for _ = 1 to 100 do
         ignore (C.update obj Cs.Increment)
       done
     with
    | exception Onll_core.Onll.Log_full _ -> true
    | _ -> false)

(* {1 Checkpoints drop by key and read no log back} *)

(* The live entries of a log replica as (offset, payload), parsed straight
   from its bytes the way the log's own scan reads them: the newer
   CRC-valid header slot gives the head; from there CRC-valid entries are
   listed, CRC-valid skip markers stepped over, and anything else ends the
   valid prefix. Independent of the log's in-memory account. *)
let live_entries region =
  let module R = Onll_nvm.Memory.Region in
  let ld off = R.load_int64 region ~proc:0 ~off in
  let le64 v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    Bytes.to_string b
  in
  let crc s =
    Int64.logand (Int64.of_int32 (Onll_util.Crc32.string s)) 0xFFFFFFFFL
  in
  let stop = R.size region in
  let slot off =
    let seq = ld off and head = ld (off + 8) and bound = ld (off + 16) in
    if
      seq > 0L
      && Int64.to_int head >= 64
      && Int64.to_int head <= stop
      && ld (off + 24) = crc (le64 seq ^ le64 head ^ le64 bound)
    then Some (seq, Int64.to_int head)
    else None
  in
  let head =
    match (slot 0, slot 32) with
    | None, None -> 64
    | Some (_, h), None | None, Some (_, h) -> h
    | Some (sa, ha), Some (sb, hb) -> if sa >= sb then ha else hb
  in
  let rec walk pos acc =
    let len = if pos + 16 > stop then 0L else ld pos in
    let n = Int64.to_int len in
    if n >= 1 && pos + 16 + n <= stop then
      let payload = R.load region ~proc:0 ~off:(pos + 16) ~len:n in
      if ld (pos + 8) = crc (le64 len ^ payload) then
        walk (pos + 16 + n) ((pos, payload) :: acc)
      else List.rev acc
    else if
      n <= -16 && pos - n <= stop
      && ld (pos + 8) = crc (le64 len ^ le64 0x534B49504D41524BL)
    then walk (pos - n) acc
    else List.rev acc
  in
  walk head []

(* An ONLL record's (tag, index): tag 0 is Ops with its exec_idx, tag 1 a
   Checkpoint with its upto_idx. *)
let record_header payload =
  let open Onll_util.Codec in
  let tag, body = decode (pair int string) payload in
  (tag, fst (decode (pair int skip) body))

(* The drop rule checkpoints used before the log kept record keys: decode
   the live entries and count the leading ones a checkpoint up to [upto]
   makes redundant. *)
let old_rule_droppable payloads ~upto =
  let rec count n = function
    | p :: rest -> (
        match record_header p with
        | 0, exec_idx when exec_idx <= upto -> count (n + 1) rest
        | 1, upto_idx when upto_idx < upto -> count (n + 1) rest
        | _ -> n)
    | [] -> n
  in
  count 0 payloads

let flip_byte region ~off =
  Onll_nvm.Memory.Region.corrupt region ~off ~len:1 ~f:(fun _ c ->
      Char.chr (Char.code c lxor 0x10))

(* Seeded sequences of concurrent updates, checkpoints by either process,
   prunes, scrubs, crash + recovery, and small mirrored logs that the
   update path auto-compacts (checkpoint, then relocate). Now and then one
   live entry is rotted in every replica; a scrub quarantines it and its
   owner checkpoints at once, so the account must be rebuilt around the
   skip marker. Every checkpoint — explicit or automatic — is checked,
   through the sink, against the old rule evaluated on the log's bytes
   right after the checkpoint record's append; every recovery must give
   the state of the updates that returned and report each of them
   linearized. *)
let test_checkpoint_drop_matches_old_rule () =
  let checked = ref 0 and explicit = ref 0 and corrupted = ref 0 in
  let recoveries = ref 0 in
  let mismatches = ref [] in
  for seed = 0 to 24 do
    let rng = Random.State.make [| seed |] in
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make (M) (Cs) in
    let mem = Sim.memory sim in
    let log_names = ref [||] in
    (* log name -> (old rule's count, upto, entries the log dropped) *)
    let pending = Hashtbl.create 4 in
    let last_upto = Array.make 2 (-1) in
    let fail fmt =
      Printf.ksprintf (fun m -> mismatches := (seed, m) :: !mismatches) fmt
    in
    let handler (e : Onll_obs.Event.t) =
      match e.kind with
      | Onll_obs.Event.Log_append { log; _ } -> (
          let live =
            List.map snd
              (live_entries
                 (Option.get (Onll_nvm.Memory.find_region mem log)))
          in
          match List.rev live with
          | last :: _ when fst (record_header last) = 1 ->
              let upto = snd (record_header last) in
              Hashtbl.replace pending log
                (old_rule_droppable live ~upto, upto, ref 0)
          | _ -> Hashtbl.remove pending log)
      | Onll_obs.Event.Log_compact { log; dropped } -> (
          match Hashtbl.find_opt pending log with
          | Some (_, _, seen) -> seen := !seen + dropped
          | None -> fail "%s: a drop outside a checkpoint" log)
      | Onll_obs.Event.Checkpoint { upto } -> (
          last_upto.(e.proc) <- upto;
          let log = !log_names.(e.proc) in
          match Hashtbl.find_opt pending log with
          | Some (expect, u, seen) when u = upto ->
              incr checked;
              if !seen <> expect then
                fail "%s: checkpoint to %d dropped %d, old rule %d" log upto
                  !seen expect;
              Hashtbl.remove pending log
          | _ -> fail "%s: checkpoint to %d without its record" log upto)
      | _ -> ()
    in
    let obj =
      C.make
        {
          Onll_core.Onll.Config.default with
          log_capacity = 700;
          replicas = 2;
          sink = Onll_obs.Sink.make ~handler ();
        }
    in
    log_names :=
      Array.of_list
        (List.map
           (fun l -> l.Onll_core.Onll.Snapshot.log_name)
           (C.snapshot obj).Onll_core.Onll.Snapshot.logs);
    let acked = ref [] and count = ref 0 in
    let run_as p f =
      if p = 0 then f ()
      else
        ignore
          (Sim.run sim
             (Sched.Strategy.random ~seed:(Random.State.bits rng))
             [| (fun _ -> ()); (fun _ -> f ()) |])
    in
    let checkpoint p =
      incr explicit;
      run_as p (fun () -> ignore (C.checkpoint obj))
    in
    let latest () =
      (C.snapshot obj).Onll_core.Onll.Snapshot.latest_available_idx
    in
    let crash_recover () =
      Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Drop_all;
      C.recover obj;
      incr recoveries;
      check Alcotest.int
        (Printf.sprintf "seed %d: recovered state" seed)
        !count (C.read obj Cs.Get);
      List.iter
        (fun id ->
          if not (C.was_linearized obj id) then
            fail "%s not linearized after recovery"
              (Format.asprintf "%a" Onll_core.Onll.pp_op_id id))
        !acked;
      check Alcotest.bool
        (Printf.sprintf "seed %d: never-invoked op" seed)
        false
        (C.was_linearized obj { Onll_core.Onll.id_proc = 1; id_seq = 100_000 })
    in
    for _ = 1 to 40 do
      match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 ->
          let body k _ =
            for _ = 1 to k do
              let id, _ = C.update_with_id obj Cs.Increment in
              acked := id :: !acked;
              incr count
            done
          in
          ignore
            (Sim.run sim
               (Sched.Strategy.random ~seed:(Random.State.bits rng))
               [|
                 body (Random.State.int rng 4); body (Random.State.int rng 4);
               |])
      | 4 | 5 ->
          (* A checkpoint with no progress since the log's last one drops
             nothing (the old checkpoint's index is not below the new
             one's), so repeating it only fills these small logs. *)
          let p = Random.State.int rng 2 in
          if latest () <> last_upto.(p) then checkpoint p
      | 6 ->
          let below = latest () in
          if below > fst (C.trace_base obj) then C.prune obj ~below
      | 7 -> ignore (C.scrub obj)
      | 8 -> crash_recover ()
      | _ -> (
          let p = Random.State.int rng 2 in
          let name = !log_names.(p) in
          let region r = Option.get (Onll_nvm.Memory.find_region mem r) in
          match live_entries (region name) with
          | [] -> ()
          | live ->
              let off, payload =
                List.nth live (Random.State.int rng (List.length live))
              in
              let at =
                off + 16 + Random.State.int rng (String.length payload)
              in
              List.iter
                (fun r -> flip_byte (region r) ~off:at)
                [ name; Onll_plog.Plog.replica_region_name name 1 ];
              incr corrupted;
              let s = C.scrub obj in
              check Alcotest.int
                (Printf.sprintf "seed %d: scrub quarantines the rot" seed)
                1 s.Onll_plog.Plog.unrepairable_spans;
              checkpoint p)
    done;
    crash_recover ()
  done;
  List.iter
    (fun (seed, m) -> Alcotest.failf "seed %d: %s" seed m)
    (List.rev !mismatches);
  check Alcotest.bool "automatic checkpoints were checked too" true
    (!checked > !explicit);
  check Alcotest.bool "corruptions were quarantined" true (!corrupted > 10);
  check Alcotest.bool "recoveries ran" true (!recoveries > 25)

(* While the log's account is valid, a checkpoint reads nothing back: it
   encodes the state once, appends one record and drops the prefix from
   the in-memory keys. Recovery's walk rebuilds the account as it goes,
   so only the first checkpoint after a scrub pays one scan to rebuild
   it. *)
let test_checkpoint_reads_no_log () =
  let sim = Sim.create ~max_processes:1 () in
  let module M0 = (val Sim.machine sim) in
  let module M = Test_support.Machine_wrap.Counting_loads (M0) in
  let module C = Onll_core.Onll.Make (M) (Onll_specs.Kv) in
  let obj =
    C.make
      { Onll_core.Onll.Config.default with replicas = 2 }
  in
  let puts n =
    for i = 1 to n do
      ignore (C.update obj (Onll_specs.Kv.Put (string_of_int i, "v")))
    done
  in
  let checkpoint_loads () =
    let before = !M.loads in
    ignore (C.checkpoint obj);
    !M.loads - before
  in
  puts 30;
  check Alcotest.int "first checkpoint" 0 (checkpoint_loads ());
  puts 30;
  check Alcotest.int "second checkpoint" 0 (checkpoint_loads ());
  check Alcotest.int "checkpoint with no progress" 0 (checkpoint_loads ());
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  puts 10;
  check Alcotest.int "after recovery: the walk rebuilt the account" 0
    (checkpoint_loads ());
  puts 10;
  check Alcotest.int "then nothing again" 0 (checkpoint_loads ());
  ignore (C.scrub obj);
  puts 10;
  check Alcotest.bool "after a scrub: one rebuilding scan" true
    (checkpoint_loads () > 0);
  puts 10;
  check Alcotest.int "valid again" 0 (checkpoint_loads ());
  check Alcotest.bool "state intact" true
    (C.read obj (Onll_specs.Kv.Get "7") = Onll_specs.Kv.Found (Some "v"))

(* A checkpoint with no progress since the one already live in the
   caller's log appends nothing and pays no fence: a second record with
   the same index would drop nothing, not even the first, so repeating it
   used to fill a small log until [Log_full]. Recovery learns the live
   checkpoint from the log it reads, so the rule holds across a crash. *)
let test_checkpoint_without_progress () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Onll_specs.Kv) in
  let obj =
    C.make { Onll_core.Onll.Config.default with log_capacity = 4096 }
  in
  for i = 1 to 20 do
    ignore (C.update obj (Onll_specs.Kv.Put (string_of_int i, "v")))
  done;
  let upto = C.checkpoint obj in
  let live_checkpoints () =
    (List.hd (C.snapshot obj).Onll_core.Onll.Snapshot.logs)
      .Onll_core.Onll.Snapshot.ops_per_entry
    |> List.filter (( = ) 0)
    |> List.length
  in
  let no_progress what =
    let fences = M.persistent_fences () in
    for _ = 1 to 1000 do
      check Alcotest.int (what ^ ": the same index") upto (C.checkpoint obj)
    done;
    check Alcotest.int (what ^ ": no fence") fences (M.persistent_fences ());
    check Alcotest.int (what ^ ": one live checkpoint") 1
      (live_checkpoints ())
  in
  no_progress "1000 checkpoints";
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  no_progress "after recovery";
  ignore (C.update obj (Onll_specs.Kv.Put ("21", "v")));
  check Alcotest.int "progress: a new checkpoint" (upto + 1)
    (C.checkpoint obj);
  check Alcotest.int "progress: it replaced the old one" 1
    (live_checkpoints ());
  check Alcotest.bool "state intact" true
    (C.read obj (Onll_specs.Kv.Get "21") = Onll_specs.Kv.Found (Some "v")
    && C.read obj Onll_specs.Kv.Size = Onll_specs.Kv.Count 21)

(* The counter, counting its [apply] calls. *)
module Counting_counter = struct
  include Cs

  let applies = ref 0

  let apply s op =
    incr applies;
    Cs.apply s op
end

module type COUNTED_COUNTER =
  Onll_core.Onll.CONSTRUCTION
    with type state = Cs.state
     and type update_op = Cs.update_op
     and type read_op = Cs.read_op
     and type value = Cs.value

(* [prune ~below:(checkpoint t)] needs the state just below the
   checkpoint's node. The fold that published the checkpoint's state left
   the one below it in its slot, so the prune applies no operation, on
   either trace. *)
let test_prune_after_checkpoint_applies_nothing () =
  let prune_applies (module C : COUNTED_COUNTER) =
    List.map
      (fun updates ->
        let obj = C.make Onll_core.Onll.Config.default in
        for _ = 1 to updates do
          ignore (C.update obj Cs.Increment)
        done;
        ignore (C.read obj Cs.Get);
        let upto = C.checkpoint obj in
        let before = !Counting_counter.applies in
        C.prune obj ~below:upto;
        let applied = !Counting_counter.applies - before in
        check
          Alcotest.(pair int int)
          "base = the fold below the checkpoint"
          (upto - 1, upto - 1)
          (C.trace_base obj);
        applied)
      [ 20; 20; 1 ]
  in
  let sim () = Sim.create ~max_processes:1 () in
  let lock_free =
    let module M = (val Sim.machine (sim ())) in
    (module Onll_core.Onll.Make (M) (Counting_counter) : COUNTED_COUNTER)
  in
  let wait_free =
    let module M = (val Sim.machine (sim ())) in
    (module Onll_core.Onll.Make_wait_free (M) (Counting_counter)
    : COUNTED_COUNTER)
  in
  check Alcotest.(list int) "lock-free trace" [ 0; 0; 0 ]
    (prune_applies lock_free);
  check Alcotest.(list int) "wait-free trace" [ 0; 0; 0 ]
    (prune_applies wait_free)

(* Kv, counting its [apply] calls. *)
module Counting_kv = struct
  include Onll_specs.Kv

  let applies = ref 0

  let apply s op =
    incr applies;
    Onll_specs.Kv.apply s op
end

module type COUNTED_KV =
  Onll_core.Onll.CONSTRUCTION
    with type update_op = Onll_specs.Kv.update_op
     and type read_op = Onll_specs.Kv.read_op
     and type value = Onll_specs.Kv.value

(* One apply per update (§8): the first fold through a trace node
   publishes the state after it and its operation's value, so an update
   whose predecessor is published applies only its own operation, an
   owner whose node another process folded (a combining window) applies
   nothing, and so does a read whose node is published. [procs] processes
   run [per] updates each under a seeded random schedule, and every 64th
   update compacts (checkpoint + prune). Returns the applies per update
   and the applies of a read after the run. *)
let applies_per_update ~batched ~procs ~seed =
  let per = 96 in
  let sim = Sim.create ~max_processes:procs () in
  let module M = (val Sim.machine sim) in
  let module C =
    (val if batched then
           (module Onll_core.Onll.Make_combining (M) (Counting_kv) : COUNTED_KV)
         else (module Onll_core.Onll.Make (M) (Counting_kv) : COUNTED_KV))
  in
  let obj = C.make Onll_core.Onll.Config.default in
  let updates = ref 0 in
  let body p _ =
    for k = 1 to per do
      let key = Printf.sprintf "k%d" (((p * 31) + k) mod 50) in
      ignore (C.update obj (Onll_specs.Kv.Put (key, string_of_int k)));
      incr updates;
      if !updates mod 64 = 0 then ignore (C.compact obj)
    done
  in
  Counting_kv.applies := 0;
  check Alcotest.bool "completed" true
    (Sim.run sim (Sched.Strategy.random ~seed) (Array.init procs body)
    = Sched.World.Completed);
  let ratio = float_of_int !Counting_kv.applies /. float_of_int (procs * per) in
  let before = !Counting_kv.applies in
  ignore (C.read obj Onll_specs.Kv.Size);
  (ratio, !Counting_kv.applies - before)

let test_one_apply_per_update () =
  List.iter
    (fun batched ->
      List.iter
        (fun procs ->
          List.iter
            (fun seed ->
              let ratio, read = applies_per_update ~batched ~procs ~seed in
              let what =
                Printf.sprintf "%s, %d procs, seed %d: %.3f applies/update"
                  (if batched then "combining" else "plain")
                  procs seed ratio
              in
              if procs = 1 then
                check (Alcotest.float 0.) (what ^ " = 1") 1. ratio
              else check Alcotest.bool (what ^ " <= 1.1") true (ratio <= 1.1);
              check Alcotest.int (what ^ ": a read at a published node") 0 read)
            [ 1; 2; 3; 4; 5 ])
        [ 1; 2; 4 ])
    [ false; true ]

(* Published states cost no memory per operation: a [Config.default] kv
   object's minor words per update hold flat from 2,000 to 8,000 updates
   (a fold from the trace base grew with every update), and agree between
   64 KiB and 1 MiB logs (a longer trace between compactions). Native
   machine, one domain, free fence, 64 keys. *)
let test_words_per_update_flat () =
  let words_per_update ~log_capacity =
    let native = Native.create ~max_processes:1 ~fence_ns:0 () in
    let module M = (val Native.machine native) in
    let module C = Onll_core.Onll.Make (M) (Onll_specs.Kv) in
    ignore (Native.register native);
    let obj = C.make { Onll_core.Onll.Config.default with log_capacity } in
    let puts =
      Array.init 8_000 (fun i ->
          Onll_specs.Kv.Put (Printf.sprintf "key%02d" (i * 7 mod 64), "v"))
    in
    let words lo hi =
      Gc.minor ();
      let before = Gc.minor_words () in
      for i = lo to hi - 1 do
        ignore (C.update obj puts.(i))
      done;
      (Gc.minor_words () -. before) /. float_of_int (hi - lo)
    in
    let early = words 0 2_000 in
    let late = words 2_000 8_000 in
    (early, late)
  in
  let early, late = words_per_update ~log_capacity:(1 lsl 16) in
  let _, late_1m = words_per_update ~log_capacity:(1 lsl 20) in
  let within what a b =
    check Alcotest.bool
      (Printf.sprintf "%s: %.1f vs %.1f words/update" what a b)
      true
      (a <= 1.2 *. b && b <= 1.2 *. a)
  in
  within "2k vs 8k updates, 64 KiB" early late;
  within "64 KiB vs 1 MiB logs" late late_1m

(* Recovery gathers every logged envelope into one array. An array longer
   than a minor-heap allocation (256 words) made over a young initial
   value forces a minor collection first, so a recovery just past 256
   envelopes would pay one collection more than one below. Native
   machine, one domain, free fence, kv. *)
let test_recover_no_forced_minor () =
  let minors envelopes =
    let native = Native.create ~max_processes:1 ~fence_ns:0 () in
    let module M = (val Native.machine native) in
    let module C = Onll_core.Onll.Make (M) (Onll_specs.Kv) in
    ignore (Native.register native);
    let obj = C.make Onll_core.Onll.Config.default in
    for i = 1 to envelopes do
      ignore (C.update obj (Onll_specs.Kv.Put (Printf.sprintf "k%d" i, "v")))
    done;
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.minor_collections in
    C.recover obj;
    let after = (Gc.quick_stat ()).Gc.minor_collections in
    check Alcotest.int
      (Printf.sprintf "%d envelopes recovered" envelopes)
      envelopes
      (List.length (C.recovered_ops obj));
    after - before
  in
  let below = minors 250 in
  check Alcotest.int "minor collections: 300 envelopes = 250" below
    (minors 300)

(* Forge a log entry claiming execution index 3 with no entries for 1..2:
   recovery must refuse (Prop 5.10 says such logs cannot be produced by the
   implementation, so this is corruption). The entry bytes are constructed
   with the same codecs the implementation uses, then written straight into
   the object's log region. *)
(* Media damage that takes one operation's every durable copy leaves a
   gap: recovery adopts the prefix below it, names the gap, lists the
   stranded operations above it in index order, answers [was_linearized]
   accordingly, and still allocates sequence numbers past every identity
   it saw. *)
let test_recovery_report_gap_and_dropped () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  for _ = 1 to 6 do
    ignore (C.update obj Cs.Increment)
  done;
  let region =
    Option.get
      (Onll_nvm.Memory.find_region (Sim.memory sim) "counter.0.plog.0")
  in
  (* the third record: skip two [len][crc][payload] frames from offset 64 *)
  let image = Onll_nvm.Memory.Region.durable_snapshot region in
  let next off = off + 16 + Int64.to_int (String.get_int64_le image off) in
  let third = next (next 64) in
  Onll_nvm.Memory.Region.corrupt region ~off:(third + 16) ~len:1
    ~f:(fun _ c -> Char.chr (Char.code c lxor 0x10));
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = C.recover_report obj in
  let id seq = { Onll_core.Onll.id_proc = 0; id_seq = seq } in
  check Alcotest.(list int) "the gap" [ 3 ]
    r.Onll_core.Onll.Recovery_report.gap_indices;
  check Alcotest.(list int) "stranded above it, in index order" [ 3; 4; 5 ]
    (List.map
       (fun i -> i.Onll_core.Onll.id_seq)
       r.Onll_core.Onll.Recovery_report.dropped);
  check Alcotest.int "adopted" 2 r.Onll_core.Onll.Recovery_report.recovered_ops;
  check Alcotest.(list int) "recovered indices" [ 1; 2 ]
    (List.map snd (C.recovered_ops obj));
  check Alcotest.(list bool) "was_linearized"
    [ true; true; false; false; false; false ]
    (List.init 6 (fun seq -> C.was_linearized obj (id seq)));
  check Alcotest.int "value" 2 (C.read obj Cs.Get);
  ignore (C.update obj Cs.Increment);
  check Alcotest.bool "the next update takes a fresh identity" true
    (C.was_linearized obj (id 6))

(* Recovery counts an entry that does not decode and moves on; a
   snapshot counts it as 0 operations, before and after the checkpoint
   that drops it (its key comes from the record header). The recovery
   also drops [b], stranded above the entry's hole, from the log, so [c]
   is the only operation logged after it. *)
let test_undecodable_entry_snapshot () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Test_support.Poisoned_kv) in
  let obj = C.make Onll_core.Onll.Config.default in
  let put k = ignore (C.update obj (Onll_specs.Kv.Put (k, "v"))) in
  let recover_failures () =
    Onll_nvm.Memory.crash (Sim.memory sim)
      ~policy:Onll_nvm.Crash_policy.Drop_all;
    (C.recover_report obj).Onll_core.Onll.Recovery_report.decode_failures
  in
  let logged_ops after =
    match C.snapshot obj with
    | { Onll_core.Onll.Snapshot.logs = [ l ]; _ } ->
        List.fold_left ( + ) 0 l.Onll_core.Onll.Snapshot.ops_per_entry
    | _ -> Alcotest.failf "snapshot after %s: one log expected" after
  in
  List.iter put [ "a"; "poison"; "b" ];
  check Alcotest.int "recovery counts the entry" 1 (recover_failures ());
  check Alcotest.int "snapshot after recovery" 1 (logged_ops "recovery");
  ignore (C.checkpoint obj);
  check Alcotest.int "snapshot after a checkpoint" 0
    (logged_ops "checkpoint");
  put "c";
  check Alcotest.int "snapshot after an update" 1 (logged_ops "update");
  ignore (C.checkpoint obj);
  check Alcotest.int "snapshot after the dropping checkpoint" 0
    (logged_ops "second checkpoint");
  check Alcotest.int "the dropped entry is gone" 0 (recover_failures ());
  check Alcotest.int "snapshot after the second recovery" 0
    (logged_ops "second recovery")

(* A degraded recovery drops [b], stranded above the undecodable entry's
   hole. Its entry must leave the log: otherwise [d] reuses its index 3
   after the restart, and the next recovery keeps the older copy, brings
   [b] back and loses the acknowledged [d]. *)
let test_dropped_entry_stays_dropped () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Test_support.Poisoned_kv) in
  let module Kv = Onll_specs.Kv in
  let obj = C.make Onll_core.Onll.Config.default in
  let put k = fst (C.update_with_id obj (Kv.Put (k, "v"))) in
  let crash_recover () =
    Onll_nvm.Memory.crash (Sim.memory sim)
      ~policy:Onll_nvm.Crash_policy.Drop_all;
    C.recover_report obj
  in
  let b = List.nth (List.map put [ "a"; "poison"; "b" ]) 2 in
  let r = crash_recover () in
  check Alcotest.int "b is dropped" 1
    (List.length r.Onll_core.Onll.Recovery_report.dropped);
  let d = List.nth (List.map put [ "c"; "d" ]) 1 in
  let r = crash_recover () in
  let module R = Onll_core.Onll.Recovery_report in
  check Alcotest.(pair int int) "no gap, drop or disagreement left" (0, 0)
    ( List.length r.R.gap_indices + List.length r.R.dropped,
      List.length r.R.disagreements );
  check Alcotest.int "the undecodable entry is still counted" 1
    r.R.decode_failures;
  check Alcotest.bool "b stays dropped" true
    (C.read obj (Kv.Get "b") = Kv.Found None);
  check Alcotest.bool "b is not linearized" false (C.was_linearized obj b);
  check Alcotest.bool "the acknowledged d survives" true
    (C.read obj (Kv.Get "d") = Kv.Found (Some "v"));
  check Alcotest.bool "d is linearized" true (C.was_linearized obj d)

let test_recovery_corrupt_on_forged_gap () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let open Onll_util in
  (* envelope (proc 0, seq 0, Increment); the operation is encoded inline
     (not length-prefixed) and Increment is the frame of tag 0 with an
     empty body *)
  let env_c = Codec.(triple int int (pair int string)) in
  let ops_body =
    Codec.encode Codec.(pair int (list env_c)) (3, [ (0, 0, (0, "")) ])
  in
  let payload = Codec.encode Codec.(pair int Codec.string) (0, ops_body) in
  (* plog entry framing: [len][crc32(len||payload)][payload] at offset 64 *)
  let len = String.length payload in
  let crc_input = Bytes.create (8 + len) in
  Bytes.set_int64_le crc_input 0 (Int64.of_int len);
  Bytes.blit_string payload 0 crc_input 8 len;
  let crc =
    Int64.logand
      (Int64.of_int32 (Crc32.bytes crc_input ~pos:0 ~len:(8 + len)))
      0xFFFFFFFFL
  in
  let mem = Sim.memory sim in
  let region =
    match Onll_nvm.Memory.find_region mem "counter.0.plog.0" with
    | Some r -> r
    | None -> Alcotest.fail "log region not found"
  in
  Onll_nvm.Memory.Region.store_int64 region ~proc:0 ~off:64 (Int64.of_int len);
  Onll_nvm.Memory.Region.store_int64 region ~proc:0 ~off:72 crc;
  Onll_nvm.Memory.Region.store region ~proc:0 ~off:80 payload;
  Onll_nvm.Memory.Region.flush region ~proc:0 ~off:64 ~len:(16 + len);
  Onll_nvm.Memory.fence mem ~proc:0;
  check Alcotest.bool "recovery refuses the gap" true
    (match C.recover obj with
    | exception Onll_core.Onll.Recovery_corrupt _ -> true
    | () -> false)

(* {1 A transient fault escaping an update's persist} *)

(* A total flush storm makes one update's append exhaust the log's retry
   budget, so the fault escapes with the node ordered but not available.
   The same process's next update must finish that node first (Prop
   5.2's window holds one in-flight node per process), and both updates
   then survive a crash that drops everything unfenced. *)
let test_update_after_escaped_fault () =
  let sim = Sim.create ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let run body =
    check Alcotest.bool "the run completes" true
      (Sim.run sim Sched.Strategy.round_robin [| body |]
      = Sched.World.Completed)
  in
  let storm =
    Onll_faults.Faults.install mem
      {
        Onll_faults.Faults.Plan.none with
        seed = 7;
        flush_fail_prob = 1.0;
        max_consecutive_transients = 1_000_000;
      }
  in
  run (fun _ ->
      match C.update obj Cs.Increment with
      | exception Onll_nvm.Memory.Transient_fault _ -> ()
      | _ -> Alcotest.fail "the storm never bit");
  Onll_faults.Faults.remove storm;
  run (fun _ ->
      check Alcotest.int "the next update applies after the failed one" 2
        (C.update obj Cs.Increment));
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  check Alcotest.int "both survive the crash" 2 (C.read obj Cs.Get)

let () =
  Alcotest.run "onll"
    [
      ( "sequential",
        [
          Alcotest.test_case "counter" `Quick test_sequential_counter;
          Alcotest.test_case "kv" `Quick test_sequential_kv;
          Alcotest.test_case "queue" `Quick test_sequential_queue;
        ] );
      ( "fences",
        [
          Alcotest.test_case "1 per update, 0 per read" `Quick
            test_one_fence_per_update_zero_per_read;
          Alcotest.test_case "bound under concurrency" `Quick
            test_fence_bound_concurrent;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "distinct increment values" `Quick
            test_concurrent_increments_return_distinct_values;
          Alcotest.test_case "monotone reads" `Quick
            test_reads_monotone_per_process;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "execution 1" `Quick test_figure1_execution1;
          Alcotest.test_case "execution 2" `Quick test_figure1_execution2;
          Alcotest.test_case "execution 3" `Quick test_figure1_execution3;
          Alcotest.test_case "execution 4" `Quick test_figure1_execution4;
        ] );
      ( "prop 5.9",
        [
          Alcotest.test_case "read anomaly is linearizable" `Quick
            test_prop59_read_anomaly;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "empty" `Quick test_recover_empty;
          Alcotest.test_case "idempotent" `Quick test_recover_idempotent;
          Alcotest.test_case "repeated crashes" `Quick test_repeated_crashes;
          Alcotest.test_case "values consistent" `Quick
            test_values_consistent_after_recovery;
          Alcotest.test_case "updates continue" `Quick
            test_post_recovery_updates_continue;
          Alcotest.test_case "persist-all policy" `Quick
            test_recovery_under_persist_all;
          Alcotest.test_case "forged gap rejected" `Quick
            test_recovery_corrupt_on_forged_gap;
          Alcotest.test_case "gap and dropped reported" `Quick
            test_recovery_report_gap_and_dropped;
          Alcotest.test_case "undecodable entry in snapshots" `Quick
            test_undecodable_entry_snapshot;
          Alcotest.test_case "a dropped entry stays dropped" `Quick
            test_dropped_entry_stays_dropped;
          Alcotest.test_case "no forced minor collection past 256" `Quick
            test_recover_no_forced_minor;
        ] );
      ( "detectability",
        [
          Alcotest.test_case "pre-append lost" `Quick
            test_detectable_pre_append_op_is_lost;
          Alcotest.test_case "post-fence survives" `Quick
            test_detectable_post_fence_op_survives;
          Alcotest.test_case "seq reuse is effect-free" `Quick
            test_detectable_seq_reuse_no_side_effects;
          Alcotest.test_case "seq reuse rejected" `Quick
            test_detectable_seq_reuse_rejected;
          Alcotest.test_case "seqs advance past recovery" `Quick
            test_seq_numbers_advance_past_recovery;
        ] );
      ( "local views",
        [
          Alcotest.test_case "same results" `Quick test_published_same_results;
          Alcotest.test_case "crash resets views" `Quick
            test_published_reset_by_crash;
        ] );
      ( "reclamation",
        [
          Alcotest.test_case "checkpoint compacts" `Quick
            test_checkpoint_compacts_log;
          Alcotest.test_case "recovery from checkpoint" `Quick
            test_recovery_from_checkpoint;
          Alcotest.test_case "detectability past checkpoint" `Quick
            test_detectability_past_checkpoint;
          Alcotest.test_case "prune keeps reads correct" `Quick
            test_prune_keeps_reads_correct;
          Alcotest.test_case "checkpoint+prune+crash cycle" `Quick
            test_checkpoint_prune_crash_cycle;
          Alcotest.test_case "checkpoint drop = the old rule" `Quick
            test_checkpoint_drop_matches_old_rule;
          Alcotest.test_case "checkpoint reads no log back" `Quick
            test_checkpoint_reads_no_log;
          Alcotest.test_case "prune after checkpoint applies nothing" `Quick
            test_prune_after_checkpoint_applies_nothing;
          Alcotest.test_case "checkpoint without progress appends nothing"
            `Quick test_checkpoint_without_progress;
          Alcotest.test_case "one apply per update" `Quick
            test_one_apply_per_update;
          Alcotest.test_case "words per update flat" `Quick
            test_words_per_update_flat;
        ] );
      ( "misc",
        [
          Alcotest.test_case "independent objects" `Quick
            test_two_objects_independent;
          Alcotest.test_case "full log auto-compacts" `Quick
            test_log_full_auto_compacts;
          Alcotest.test_case "Log_full when terminal" `Quick
            test_log_full_terminal_when_checkpoint_cannot_fit;
        ] );
      ( "faults",
        [
          Alcotest.test_case "an update after an escaped persist fault"
            `Quick test_update_after_escaped_fault;
        ] );
    ]
