(** The systematic explorer: exhaustive (preemption-bounded) schedule and
    crash-point enumeration on small programs. Exhaustiveness is what the
    assertions rely on: when the explorer reports zero violations over all
    schedules with <= k preemptions and all crash points, that is a
    statement about every such execution, not a sample. *)

open Onll_machine
module E = Onll_explore.Explore
module Cs = Onll_specs.Counter

let check = Alcotest.check

(* {1 Mechanics} *)

let test_single_proc_one_run () =
  (* One process, no crashes: exactly one schedule exists. *)
  let runs = ref 0 in
  let mk () =
    incr runs;
    let sim = Sim.create ~max_processes:1 () in
    let module M = (val Sim.machine sim) in
    let v = M.Tvar.make 0 in
    ( sim,
      [| (fun _ -> M.Tvar.set v 1) |],
      fun outcome ->
        assert (outcome = Onll_sched.Sched.World.Completed) )
  in
  let stats = E.run ~mk () in
  check Alcotest.int "one run" 1 stats.E.runs;
  check Alcotest.int "mk called once" 1 !runs;
  check Alcotest.bool "not truncated" false stats.E.truncated

let test_preemption_bound_monotone () =
  let explore k =
    let mk () =
      let sim = Sim.create ~max_processes:2 () in
      let module M = (val Sim.machine sim) in
      let v = M.Tvar.make 0 in
      ( sim,
        Array.init 2 (fun _ ->
            fun _ ->
              for _ = 1 to 3 do
                M.Tvar.set v (M.Tvar.get v + 1)
              done),
        fun _ -> () )
    in
    (E.run ~max_preemptions:k ~mk ()).E.runs
  in
  let r0 = explore 0 and r1 = explore 1 and r2 = explore 2 in
  check Alcotest.bool
    (Printf.sprintf "more preemptions, more schedules (%d < %d <= %d)" r0 r1
       r2)
    true
    (r0 < r1 && r1 <= r2);
  (* k=0: the only choices are at voluntary switches (process completion):
     with 2 procs that is the choice of who goes first... plus who continues
     when the running one finishes. *)
  check Alcotest.bool "k=0 explores at least both orders" true (r0 >= 2)

let test_crash_branching_adds_runs () =
  let explore with_crashes =
    let mk () =
      let sim = Sim.create ~max_processes:1 () in
      let module M = (val Sim.machine sim) in
      let r = M.Pm.create ~name:"r" ~size:64 in
      ( sim,
        [| (fun _ ->
             M.Pm.store r ~off:0 "x";
             M.Pm.flush r ~off:0 ~len:1;
             M.fence ()) |],
        fun _ -> () )
    in
    E.run ~with_crashes ~mk ()
  in
  let plain = explore false and crashy = explore true in
  check Alcotest.int "no crash branches" 0 plain.E.crashed_runs;
  check Alcotest.bool "crash at every decision point" true
    (crashy.E.crashed_runs >= 3);
  check Alcotest.bool "more runs with crashes" true
    (crashy.E.runs > plain.E.runs)

(* {1 Exhaustive correctness of ONLL on small programs} *)

let test_onll_counter_all_schedules () =
  (* 2 processes x 1 increment, all schedules with <= 2 preemptions: the
     final value is always exactly 2 and fences exactly 2. *)
  let mk () =
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make (M) (Cs) in
    let obj = C.make { Onll_core.Onll.Config.default with log_capacity = 4096 } in
    let procs =
      Array.init 2 (fun _ -> fun _ -> ignore (C.update obj Cs.Increment))
    in
    ( sim,
      procs,
      fun outcome ->
        assert (outcome = Onll_sched.Sched.World.Completed);
        assert (C.read obj Cs.Get = 2);
        assert (M.persistent_fences () = 2) )
  in
  let stats = E.run ~max_preemptions:2 ~mk () in
  check Alcotest.bool "explored a real space" true (stats.E.runs > 50);
  check Alcotest.bool "not truncated" false stats.E.truncated

let test_onll_durability_all_schedules_and_crashes () =
  (* 2 processes x 1 increment, crash at every decision point of every
     schedule with <= 1 preemption, drop-all policy: after recovery the
     counter equals the number of linearized ops, and no violation of the
     completed-op rule is possible (no op completes before the crash unless
     persisted). *)
  let mk () =
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make (M) (Cs) in
    let obj = C.make { Onll_core.Onll.Config.default with log_capacity = 4096 } in
    let completed = ref 0 in
    let procs =
      Array.init 2 (fun p ->
          fun _ ->
            ignore (C.update_detectable obj ~seq:0 Cs.Increment);
            ignore p;
            incr completed)
    in
    ( sim,
      procs,
      fun outcome ->
        match outcome with
        | Onll_sched.Sched.World.Completed -> assert (C.read obj Cs.Get = 2)
        | Onll_sched.Sched.World.Crashed ->
            C.recover obj;
            let v = C.read obj Cs.Get in
            (* completed ops survive *)
            assert (v >= !completed);
            (* detectability is consistent with the recovered value *)
            let lin = ref 0 in
            for p = 0 to 1 do
              if C.was_linearized obj { Onll_core.Onll.id_proc = p; id_seq = 0 }
              then incr lin
            done;
            assert (v = !lin)
        | Onll_sched.Sched.World.Stopped _ -> assert false )
  in
  let stats = E.run ~max_preemptions:1 ~with_crashes:true ~mk () in
  check Alcotest.bool "hundreds of executions" true (stats.E.runs > 200);
  check Alcotest.bool "many crash injections" true (stats.E.crashed_runs > 100);
  check Alcotest.bool "not truncated" false stats.E.truncated

(* {1 The explorer finds real bugs deterministically} *)

let test_explorer_finds_volatile_lost_update () =
  (* Racy volatile counter: some schedule with <= 1 preemption loses an
     update. Random testing might find it; the explorer must. *)
  let lost = ref false in
  let mk () =
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let v = M.Tvar.make 0 in
    ( sim,
      Array.init 2 (fun _ ->
          fun _ ->
            (* read-modify-write without CAS *)
            let x = M.Tvar.get v in
            M.Tvar.set v (x + 1)),
      fun _ -> (let x = M.Tvar.get v in
                if x < 2 then lost := true) )
  in
  let stats = E.run ~max_preemptions:1 ~mk () in
  ignore stats;
  check Alcotest.bool "found a lost update" true !lost

let test_explorer_finds_broken_early_violation () =
  (* The §3.1 bug (Linearize_early, Return): the explorer, with crash
     branching, must hit the reader-observed-then-erased window without
     any seed luck. *)
  let module H = Onll_histcheck.Histcheck.Make (Cs) in
  let violation = ref false in
  let mk () =
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module B = Onll_baselines.Linearize_early.Make (M) (Cs) in
    let obj =
      B.create ~log_capacity:4096 Onll_baselines.Linearize_early.Return
    in
    let recorder = H.Recorder.create () in
    let procs =
      [|
        (fun _ ->
          let uid = H.Recorder.invoke recorder ~proc:0 (H.Update Cs.Increment) in
          let v = B.update obj Cs.Increment in
          H.Recorder.return_ recorder uid v);
        (fun _ ->
          let uid = H.Recorder.invoke recorder ~proc:1 (H.Read Cs.Get) in
          let v = B.read obj Cs.Get in
          H.Recorder.return_ recorder uid v);
      |]
    in
    ( sim,
      procs,
      fun outcome ->
        if outcome = Onll_sched.Sched.World.Crashed then begin
          H.Recorder.crash recorder;
          B.recover obj;
          let uid = H.Recorder.invoke recorder ~proc:0 (H.Read Cs.Get) in
          let v = B.read obj Cs.Get in
          H.Recorder.return_ recorder uid v;
          match H.check (H.Recorder.history recorder) with
          | H.Violation _ -> violation := true
          | H.Durably_linearizable _ | H.Budget_exhausted -> ()
        end )
  in
  let stats = E.run ~max_preemptions:1 ~with_crashes:true ~mk () in
  check Alcotest.bool "exploration happened" true (stats.E.crashed_runs > 10);
  check Alcotest.bool "violation found deterministically" true !violation

let test_onll_same_program_no_violation () =
  (* The same exploration against real ONLL: zero violations over the whole
     space. *)
  let module H = Onll_histcheck.Histcheck.Make (Cs) in
  let violation = ref false in
  let mk () =
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make (M) (Cs) in
    let obj = C.make { Onll_core.Onll.Config.default with log_capacity = 4096 } in
    let recorder = H.Recorder.create () in
    let procs =
      [|
        (fun _ ->
          let uid = H.Recorder.invoke recorder ~proc:0 (H.Update Cs.Increment) in
          let v = C.update obj Cs.Increment in
          H.Recorder.return_ recorder uid v);
        (fun _ ->
          let uid = H.Recorder.invoke recorder ~proc:1 (H.Read Cs.Get) in
          let v = C.read obj Cs.Get in
          H.Recorder.return_ recorder uid v);
      |]
    in
    ( sim,
      procs,
      fun outcome ->
        if outcome = Onll_sched.Sched.World.Crashed then begin
          H.Recorder.crash recorder;
          C.recover obj;
          let uid = H.Recorder.invoke recorder ~proc:0 (H.Read Cs.Get) in
          let v = C.read obj Cs.Get in
          H.Recorder.return_ recorder uid v;
          match H.check (H.Recorder.history recorder) with
          | H.Violation _ -> violation := true
          | H.Durably_linearizable _ | H.Budget_exhausted -> ()
        end )
  in
  let stats = E.run ~max_preemptions:1 ~with_crashes:true ~mk () in
  check Alcotest.bool "space explored" true (stats.E.crashed_runs > 10);
  check Alcotest.bool "no violation anywhere" false !violation

let test_wait_free_onll_explored () =
  (* The wait-free variant under exhaustive small-space exploration, with
     p1 compacting after its update: every interleaving of the prune with
     p0's announcement, helping and persist, and every crash point. *)
  let mk () =
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
    let obj = C.make { Onll_core.Onll.Config.default with log_capacity = 4096 } in
    let returned = Array.make 2 0 in
    let update p = returned.(p) <- C.update_detectable obj ~seq:0 Cs.Increment in
    ( sim,
      [| (fun _ -> update 0); (fun _ -> update 1; ignore (C.compact obj)) |],
      fun outcome ->
        match outcome with
        | Onll_sched.Sched.World.Completed ->
            assert (C.read obj Cs.Get = 2);
            assert (List.sort compare (Array.to_list returned) = [ 1; 2 ])
        | Onll_sched.Sched.World.Crashed ->
            C.recover obj;
            let v = C.read obj Cs.Get in
            (* every returned update survives, and detectability agrees *)
            Array.iter (fun r -> assert (r <= v)) returned;
            let lin = ref 0 in
            for p = 0 to 1 do
              if C.was_linearized obj { Onll_core.Onll.id_proc = p; id_seq = 0 }
              then incr lin
            done;
            assert (v = !lin)
        | Onll_sched.Sched.World.Stopped _ -> assert false )
  in
  let stats = E.run ~max_preemptions:1 ~with_crashes:true ~mk () in
  check Alcotest.bool "explored" true (stats.E.runs > 100);
  check Alcotest.bool "not truncated" false stats.E.truncated

let test_max_runs_truncates () =
  let mk () =
    let sim = Sim.create ~max_processes:3 () in
    let module M = (val Sim.machine sim) in
    let v = M.Tvar.make 0 in
    ( sim,
      Array.init 3 (fun _ ->
          fun _ ->
            for _ = 1 to 5 do
              M.Tvar.set v (M.Tvar.get v + 1)
            done),
      fun _ -> () )
  in
  let stats = E.run ~max_preemptions:3 ~max_runs:50 ~mk () in
  check Alcotest.bool "truncated" true stats.E.truncated;
  check Alcotest.int "capped" 50 stats.E.runs

let () =
  Alcotest.run "explore"
    [
      ( "mechanics",
        [
          Alcotest.test_case "single proc" `Quick test_single_proc_one_run;
          Alcotest.test_case "preemption bound" `Quick
            test_preemption_bound_monotone;
          Alcotest.test_case "crash branching" `Quick
            test_crash_branching_adds_runs;
          Alcotest.test_case "max runs truncates" `Quick test_max_runs_truncates;
        ] );
      ( "onll exhaustive",
        [
          Alcotest.test_case "all schedules: value exact" `Quick
            test_onll_counter_all_schedules;
          Alcotest.test_case "all schedules and crashes: durable" `Slow
            test_onll_durability_all_schedules_and_crashes;
          Alcotest.test_case "wait-free variant" `Slow
            test_wait_free_onll_explored;
        ] );
      ( "bug finding",
        [
          Alcotest.test_case "volatile lost update" `Quick
            test_explorer_finds_volatile_lost_update;
          Alcotest.test_case "broken-early violation" `Slow
            test_explorer_finds_broken_early_violation;
          Alcotest.test_case "onll clean on same program" `Slow
            test_onll_same_program_no_violation;
        ] );
    ]
