open Onll_machine
open Onll_sched
module Cs = Onll_specs.Counter

let check = Alcotest.check

(* {1 Volatile} *)

let test_volatile_semantics_and_zero_fences () =
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let module V = Onll_baselines.Volatile.Make (M) (Cs) in
  let obj = V.create () in
  let results = ref [] in
  let procs =
    Array.init 3 (fun _ ->
        fun _ ->
          for _ = 1 to 5 do
            let v = V.update obj Cs.Increment in
            results := v :: !results
          done)
  in
  ignore (Sim.run sim (Sched.Strategy.random ~seed:2) procs);
  check
    Alcotest.(list int)
    "linearizable increments"
    (List.init 15 (fun i -> i + 1))
    (List.sort compare !results);
  check Alcotest.int "zero fences" 0 (M.persistent_fences ());
  check Alcotest.int "value" 15 (V.read obj Cs.Get)

let test_volatile_loses_everything () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module V = Onll_baselines.Volatile.Make (M) (Cs) in
  let obj = V.create () in
  ignore (V.update obj (Cs.Add 42));
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Persist_all;
  V.recover obj;
  check Alcotest.int "nothing survives" 0 (V.read obj Cs.Get)

(* {1 Shadow paging} *)

let test_shadow_semantics () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module S = Onll_baselines.Shadow.Make (M) (Cs) in
  let obj = S.create () in
  check Alcotest.int "incr" 1 (S.update obj Cs.Increment);
  check Alcotest.int "add" 6 (S.update obj (Cs.Add 5));
  check Alcotest.int "read" 6 (S.read obj Cs.Get)

let test_shadow_two_fences_per_update () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module S = Onll_baselines.Shadow.Make (M) (Cs) in
  let obj = S.create () in
  for i = 1 to 5 do
    ignore (S.update obj Cs.Increment);
    check Alcotest.int "2 fences per update" (2 * i) (M.persistent_fences ())
  done;
  ignore (S.read obj Cs.Get);
  check Alcotest.int "reads free" 10 (M.persistent_fences ())

let test_shadow_durable_and_recovers () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module S = Onll_baselines.Shadow.Make (M) (Cs) in
  let obj = S.create () in
  for _ = 1 to 7 do
    ignore (S.update obj Cs.Increment)
  done;
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  S.recover obj;
  check Alcotest.int "full state recovered" 7 (S.read obj Cs.Get);
  check Alcotest.int "continues" 8 (S.update obj Cs.Increment)

let test_shadow_torn_commit_keeps_old_state () =
  (* Crash between the data fence and the header fence: the old version
     must win. Park before the SECOND pfence of an update. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module S = Onll_baselines.Shadow.Make (M) (Cs) in
  let obj = S.create () in
  ignore (S.update obj (Cs.Add 5));
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.run_until_pfence 0;
        Sched.Strategy.Run_steps (0, 1);  (* data fence executes *)
        Sched.Strategy.run_until_pfence 0;  (* park before commit fence *)
        Sched.Strategy.Crash_here;
      ]
  in
  ignore (Sim.run sim script [| (fun _ -> ignore (S.update obj Cs.Increment)) |]);
  S.recover obj;
  check Alcotest.int "old state preserved" 5 (S.read obj Cs.Get)

let test_shadow_concurrent_mutual_exclusion () =
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let module S = Onll_baselines.Shadow.Make (M) (Cs) in
  let obj = S.create () in
  let results = ref [] in
  let procs =
    Array.init 3 (fun _ ->
        fun _ ->
          for _ = 1 to 4 do
            let v = S.update obj Cs.Increment in
            results := v :: !results
          done)
  in
  ignore (Sim.run sim (Sched.Strategy.random ~seed:8) procs);
  check
    Alcotest.(list int)
    "no lost updates under the lock"
    (List.init 12 (fun i -> i + 1))
    (List.sort compare !results)

(* {1 Persist-on-read} *)

let test_por_semantics () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_baselines.Linearize_early.Make (M) (Cs) in
  let obj = P.create Onll_baselines.Linearize_early.Help in
  check Alcotest.int "incr" 1 (P.update obj Cs.Increment);
  check Alcotest.int "read" 1 (P.read obj Cs.Get);
  check Alcotest.int "incr 2" 2 (P.update obj Cs.Increment)

let test_por_one_fence_per_update () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_baselines.Linearize_early.Make (M) (Cs) in
  let obj = P.create Onll_baselines.Linearize_early.Help in
  for i = 1 to 10 do
    ignore (P.update obj Cs.Increment);
    check Alcotest.int "1 fence per update" i (M.persistent_fences ())
  done;
  (* sequential reads find everything persisted: no extra fences *)
  ignore (P.read obj Cs.Get);
  check Alcotest.int "sequential read free" 10 (M.persistent_fences ());
  check Alcotest.int "no read fences recorded" 0 (P.read_fences obj)

let test_por_reader_pays_when_update_in_flight () =
  (* Park an updater after it linearized (inserted its node) but before it
     persisted; a reader now observes the unpersisted operation and must
     fence before returning — the §3.1 trade-off made visible. *)
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_baselines.Linearize_early.Make (M) (Cs) in
  let obj = P.create Onll_baselines.Linearize_early.Help in
  let read_v = ref (-1) in
  let procs =
    [|
      (fun _ -> ignore (P.update obj Cs.Increment));
      (fun _ -> read_v := P.read obj Cs.Get);
    |]
  in
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.run_until_pfence 0;  (* linearized, not persisted *)
        Sched.Strategy.Run_to_completion 1;  (* reader must persist it *)
        Sched.Strategy.Run_to_completion 0;
      ]
  in
  ignore (Sim.run sim script procs);
  check Alcotest.int "reader saw the linearized update" 1 !read_v;
  check Alcotest.int "reader fenced" 1 (P.read_fences obj);
  check Alcotest.int "reader's fence attributed to proc 1" 1
    (M.persistent_fences_by ~proc:1)

let test_por_read_observation_durable () =
  (* After the reader in the scenario above returns, a crash must preserve
     the observed update even though the updater never fenced. *)
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_baselines.Linearize_early.Make (M) (Cs) in
  let obj = P.create Onll_baselines.Linearize_early.Help in
  let procs =
    [|
      (fun _ -> ignore (P.update obj Cs.Increment));
      (fun _ -> ignore (P.read obj Cs.Get));
    |]
  in
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.run_until_pfence 0;
        Sched.Strategy.Run_to_completion 1;
        Sched.Strategy.Crash_here;
      ]
  in
  ignore (Sim.run sim script procs);
  P.recover obj;
  check Alcotest.int "observed update durable" 1 (P.read obj Cs.Get)

let test_por_recovery () =
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_baselines.Linearize_early.Make (M) (Cs) in
  let obj = P.create Onll_baselines.Linearize_early.Help in
  let procs =
    Array.init 3 (fun _ ->
        fun _ ->
          for _ = 1 to 4 do
            ignore (P.update obj Cs.Increment)
          done)
  in
  ignore
    (Sim.run sim
       (Sched.Strategy.random_with_crash ~seed:3 ~crash_at_step:80)
       procs);
  P.recover obj;
  let v = P.read obj Cs.Get in
  check Alcotest.bool "recovered prefix" true (v >= 0 && v <= 12);
  check Alcotest.int "continues" (v + 1) (P.update obj Cs.Increment)

(* A record lost from every log leaves a gap: a reader that helps or
   waits only ever observed durable operations, so recovery calls the
   gap corruption; a reader that returns may already have observed the
   lost suffix, and recovery keeps the prefix below the gap. *)
let test_gap_by_reader () =
  let recover reader region =
    let sim = Sim.create ~max_processes:1 () in
    let module M = (val Sim.machine sim) in
    let module P = Onll_baselines.Linearize_early.Make (M) (Cs) in
    let obj = P.create reader in
    for _ = 1 to 3 do
      ignore (P.update obj Cs.Increment)
    done;
    let region =
      Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) region)
    in
    (* the second record: skip one [len][crc][payload] frame from 64 *)
    let image = Onll_nvm.Memory.Region.durable_snapshot region in
    let second = 64 + 16 + Int64.to_int (String.get_int64_le image 64) in
    Onll_nvm.Memory.Region.corrupt region ~off:(second + 16) ~len:1
      ~f:(fun _ c -> Char.chr (Char.code c lxor 0x10));
    Onll_nvm.Memory.crash (Sim.memory sim)
      ~policy:Onll_nvm.Crash_policy.Drop_all;
    match P.recover obj with
    | () -> Ok (P.read obj Cs.Get)
    | exception Onll_core.Onll.Recovery_corrupt msg -> Error msg
  in
  let open Onll_baselines.Linearize_early in
  let corrupt = Error "operation at index 2 missing from all logs" in
  let result = Alcotest.(result int string) in
  check result "help" corrupt (recover Help "counter.0.por.0");
  check result "wait" corrupt (recover Wait "counter.0.wor.0");
  check result "return keeps the prefix" (Ok 1)
    (recover Return "counter.0.broken.0")

(* {1 Wait-on-read (§3.1 branch two)} *)

let test_wor_semantics () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module W = Onll_baselines.Linearize_early.Make (M) (Cs) in
  let obj = W.create Onll_baselines.Linearize_early.Wait in
  check Alcotest.int "incr" 1 (W.update obj Cs.Increment);
  check Alcotest.int "read" 1 (W.read obj Cs.Get);
  check Alcotest.int "no waiting when sequential" 0 (W.reader_waits obj)

let test_wor_reader_waits_for_updater () =
  (* Park the updater after it linearized but before its fence; the reader
     observes the update, spins; resuming the updater releases it. *)
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module W = Onll_baselines.Linearize_early.Make (M) (Cs) in
  let obj = W.create Onll_baselines.Linearize_early.Wait in
  let read_v = ref (-1) in
  let procs =
    [|
      (fun _ -> ignore (W.update obj Cs.Increment));
      (fun _ -> read_v := W.read obj Cs.Get);
    |]
  in
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.run_until_pfence 0;  (* linearized, unpersisted *)
        Sched.Strategy.Run_steps (1, 40);  (* reader spins... *)
        Sched.Strategy.Run_to_completion 0;  (* updater persists *)
        Sched.Strategy.Run_to_completion 1;  (* reader released *)
      ]
  in
  let outcome = Sim.run sim script procs in
  check Alcotest.bool "completed" true (outcome = Sched.World.Completed);
  check Alcotest.int "reader saw the update" 1 !read_v;
  check Alcotest.int "reader had to wait" 1 (W.reader_waits obj);
  check Alcotest.int "reader issued no fence" 0
    (M.persistent_fences_by ~proc:1)

let test_wor_livelocks_behind_stalled_updater () =
  (* The §3.1 point: if the updater never resumes, the reader spins
     forever — waiting breaks lock-freedom. *)
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module W = Onll_baselines.Linearize_early.Make (M) (Cs) in
  let obj = W.create Onll_baselines.Linearize_early.Wait in
  let procs =
    [|
      (fun _ -> ignore (W.update obj Cs.Increment));
      (fun _ -> ignore (W.read obj Cs.Get));
    |]
  in
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.run_until_pfence 0;
        Sched.Strategy.Run_to_completion 1;  (* never returns *)
      ]
  in
  check Alcotest.bool "livelocks" true
    (match Sim.run ~max_steps:20_000 sim script procs with
    | exception Sched.Stuck _ -> true
    | _ -> false)

let test_wor_durable_observations () =
  (* When it does respond, a wait-on-read observation is durable: crash
     after the reader returned, the update must survive. *)
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module W = Onll_baselines.Linearize_early.Make (M) (Cs) in
  let obj = W.create Onll_baselines.Linearize_early.Wait in
  let procs =
    [|
      (fun _ -> ignore (W.update obj Cs.Increment));
      (fun _ -> ignore (W.read obj Cs.Get));
    |]
  in
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.Run_to_completion 0;
        Sched.Strategy.Run_to_completion 1;
        Sched.Strategy.Crash_here;
      ]
  in
  ignore (Sim.run sim script procs);
  W.recover obj;
  check Alcotest.int "observed update survived" 1 (W.read obj Cs.Get)

(* {1 Flat combining} *)

let test_fc_semantics_sequential () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module F = Onll_baselines.Flat_combining.Make (M) (Cs) in
  let obj = F.create () in
  let outcome =
    Sim.run sim Sched.Strategy.round_robin
      [|
        (fun _ ->
          check Alcotest.int "incr" 1 (F.update obj Cs.Increment);
          check Alcotest.int "add" 4 (F.update obj (Cs.Add 3));
          check Alcotest.int "read" 4 (F.read obj Cs.Get));
      |]
  in
  check Alcotest.bool "completed" true (outcome = Sched.World.Completed)

let test_fc_batches_share_one_fence () =
  (* Three processes announce concurrently; one combiner serves all three
     with a single persistent fence. Schedule: park all three right after
     announcing (before trying the lock), then run one to completion. *)
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let module F = Onll_baselines.Flat_combining.Make (M) (Cs) in
  let obj = F.create () in
  let results = ref [] in
  let procs =
    Array.init 3 (fun _ ->
        fun _ ->
          let v = F.update obj Cs.Increment in
          results := v :: !results)
  in
  let announced p = Sched.Strategy.Run_steps (p, 2) in
  (* step 1 starts the proc (parks at the announce store); step 2 performs
     the announce and parks at the next primitive (the lock CAS). *)
  let script =
    Sched.Strategy.script
      [
        announced 0;
        announced 1;
        announced 2;
        Sched.Strategy.Run_to_completion 0;
        Sched.Strategy.Round_robin_rest;
      ]
  in
  let outcome = Sim.run sim script procs in
  check Alcotest.bool "completed" true (outcome = Sched.World.Completed);
  check
    Alcotest.(list int)
    "all three served"
    [ 1; 2; 3 ]
    (List.sort compare !results);
  check Alcotest.int "one persistent fence for the batch" 1
    (M.persistent_fences ());
  let batches, ops = F.batch_stats obj in
  check Alcotest.int "one batch" 1 batches;
  check Alcotest.int "three ops in it" 3 ops

let test_fc_random_schedules_correct () =
  for seed = 1 to 10 do
    let sim = Sim.create ~max_processes:3 () in
    let module M = (val Sim.machine sim) in
    let module F = Onll_baselines.Flat_combining.Make (M) (Cs) in
    let obj = F.create () in
    let results = ref [] in
    let procs =
      Array.init 3 (fun _ ->
          fun _ ->
            for _ = 1 to 4 do
              let v = F.update obj Cs.Increment in
              results := v :: !results
            done)
    in
    let outcome = Sim.run sim (Sched.Strategy.random ~seed) procs in
    check Alcotest.bool "completed" true (outcome = Sched.World.Completed);
    check
      Alcotest.(list int)
      "linearizable"
      (List.init 12 (fun i -> i + 1))
      (List.sort compare !results);
    check Alcotest.bool "fences <= updates" true (M.persistent_fences () <= 12)
  done

let test_fc_recovery () =
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let module F = Onll_baselines.Flat_combining.Make (M) (Cs) in
  let obj = F.create () in
  let procs =
    Array.init 3 (fun _ ->
        fun _ ->
          for _ = 1 to 4 do
            ignore (F.update obj Cs.Increment)
          done)
  in
  ignore
    (Sim.run sim
       (Sched.Strategy.random_with_crash ~seed:6 ~crash_at_step:100)
       procs);
  F.recover obj;
  let v = F.read obj Cs.Get in
  check Alcotest.bool "recovered batches" true (v >= 0 && v <= 12);
  (* post-recovery operation *)
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [| (fun _ -> ignore (F.update obj Cs.Increment)) |]);
  check Alcotest.int "continues" (v + 1) (F.read obj Cs.Get)

let test_fc_blocks_when_combiner_stalls () =
  (* The §8 point: park the combiner inside its critical section; the other
     process can never finish. *)
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module F = Onll_baselines.Flat_combining.Make (M) (Cs) in
  let obj = F.create () in
  let procs =
    Array.init 2 (fun _ -> fun _ -> ignore (F.update obj Cs.Increment))
  in
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.run_until_pfence 0;  (* combiner holds the lock *)
        Sched.Strategy.Run_to_completion 1;  (* spins forever *)
      ]
  in
  check Alcotest.bool "livelocks" true
    (match Sim.run ~max_steps:20_000 sim script procs with
    | exception Sched.Stuck _ -> true
    | _ -> false)

let () =
  Alcotest.run "baselines"
    [
      ( "volatile",
        [
          Alcotest.test_case "semantics, zero fences" `Quick
            test_volatile_semantics_and_zero_fences;
          Alcotest.test_case "loses everything" `Quick
            test_volatile_loses_everything;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "semantics" `Quick test_shadow_semantics;
          Alcotest.test_case "two fences per update" `Quick
            test_shadow_two_fences_per_update;
          Alcotest.test_case "durable + recovery" `Quick
            test_shadow_durable_and_recovers;
          Alcotest.test_case "torn commit" `Quick
            test_shadow_torn_commit_keeps_old_state;
          Alcotest.test_case "mutual exclusion" `Quick
            test_shadow_concurrent_mutual_exclusion;
        ] );
      ( "persist-on-read",
        [
          Alcotest.test_case "semantics" `Quick test_por_semantics;
          Alcotest.test_case "one fence per update" `Quick
            test_por_one_fence_per_update;
          Alcotest.test_case "reader pays in flight" `Quick
            test_por_reader_pays_when_update_in_flight;
          Alcotest.test_case "read observation durable" `Quick
            test_por_read_observation_durable;
          Alcotest.test_case "recovery" `Quick test_por_recovery;
          Alcotest.test_case "a gap by reader branch" `Quick
            test_gap_by_reader;
        ] );
      ( "wait-on-read",
        [
          Alcotest.test_case "semantics" `Quick test_wor_semantics;
          Alcotest.test_case "reader waits" `Quick
            test_wor_reader_waits_for_updater;
          Alcotest.test_case "livelock behind stalled updater" `Quick
            test_wor_livelocks_behind_stalled_updater;
          Alcotest.test_case "durable observations" `Quick
            test_wor_durable_observations;
        ] );
      ( "flat-combining",
        [
          Alcotest.test_case "sequential semantics" `Quick
            test_fc_semantics_sequential;
          Alcotest.test_case "batch shares one fence" `Quick
            test_fc_batches_share_one_fence;
          Alcotest.test_case "random schedules" `Quick
            test_fc_random_schedules_correct;
          Alcotest.test_case "recovery" `Quick test_fc_recovery;
          Alcotest.test_case "stalled combiner blocks" `Quick
            test_fc_blocks_when_combiner_stalls;
        ] );
    ]
