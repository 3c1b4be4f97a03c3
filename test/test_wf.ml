(** The wait-free variant (§8): ONLL over the Kogan–Petrank-style trace.

    Everything the main suite checks of the lock-free construction must
    hold here too — plus the property that motivates the variant: a process
    parked mid-insert (right after announcing) has its operation completed,
    persisted and made durable by other processes' helping, without taking
    another step itself. *)

open Onll_machine
open Onll_sched
module Cs = Onll_specs.Counter

let check = Alcotest.check

(* {1 Functional equivalence with the lock-free construction} *)

let test_sequential_counter () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  check Alcotest.int "initial" 0 (C.read obj Cs.Get);
  check Alcotest.int "incr" 1 (C.update obj Cs.Increment);
  check Alcotest.int "add" 6 (C.update obj (Cs.Add 5));
  check Alcotest.int "read" 6 (C.read obj Cs.Get)

let test_sequential_kv () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make_wait_free (M) (Onll_specs.Kv) in
  let obj = C.make Onll_core.Onll.Config.default in
  let open Onll_specs.Kv in
  check Alcotest.bool "put" true (C.update obj (Put ("k", "v")) = Previous None);
  check Alcotest.bool "get" true (C.read obj (Get "k") = Found (Some "v"))

let test_fences_one_per_update () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  for i = 1 to 15 do
    ignore (C.update obj Cs.Increment);
    check Alcotest.int "1 fence per update" i (M.persistent_fences ())
  done;
  for _ = 1 to 20 do
    ignore (C.read obj Cs.Get)
  done;
  check Alcotest.int "0 per read" 15 (M.persistent_fences ())

let test_concurrent_permutation () =
  for seed = 1 to 10 do
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
    let obj = C.make Onll_core.Onll.Config.default in
    let results = ref [] in
    let procs =
      Array.init 4 (fun _ ->
          fun _ ->
            for _ = 1 to 5 do
              let v = C.update obj Cs.Increment in
              results := v :: !results
            done)
    in
    let outcome = Sim.run sim (Sched.Strategy.random ~seed) procs in
    check Alcotest.bool "completed" true (outcome = Sched.World.Completed);
    check
      Alcotest.(list int)
      "permutation of 1..20"
      (List.init 20 (fun i -> i + 1))
      (List.sort compare !results);
    check Alcotest.int "final" 20 (C.read obj Cs.Get)
  done

(* §8's local views, as published states on the forward trace: the
   results are the model's. *)
let test_published_equivalent () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  check
    Alcotest.(list int)
    "results = the model's"
    (List.concat_map (fun i -> [ i; i; i ]) (List.init 10 succ))
    (List.concat_map
       (fun _ ->
         let u = C.update obj Cs.Increment in
         let r = C.read obj Cs.Get in
         [ u; r; C.read obj Cs.Get ])
       (List.init 10 Fun.id))

(* {1 Crash and recovery} *)

let test_crash_recovery () =
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let procs =
    Array.init 3 (fun _ ->
        fun _ ->
          for _ = 1 to 5 do
            ignore (C.update obj Cs.Increment)
          done)
  in
  ignore (Sim.run sim (Sched.Strategy.random ~seed:3) procs);
  check Alcotest.int "15 before crash" 15 (C.read obj Cs.Get);
  ignore
    (Sim.run sim
       (Sched.Strategy.random_with_crash ~seed:4 ~crash_at_step:60)
       procs);
  C.recover obj;
  let v = C.read obj Cs.Get in
  check Alcotest.bool "prefix recovered" true (v >= 15 && v <= 30);
  check Alcotest.int "continues" (v + 1) (C.update obj Cs.Increment)

(* {1 The wait-freedom property itself} *)

(* Park p0 immediately after it announces its insertion (its very first
   shared write), before it attempts a single CAS. p1 then runs to
   completion. With helping, p1 must (a) link p0's operation into the trace
   before its own, (b) persist it in its own log entry, so that (c) a crash
   while p0 is still parked loses neither operation. *)

let test_helper_completes_parked_insert () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let p1_value = ref 0 in
  let procs =
    [|
      (fun _ -> ignore (C.update_detectable obj ~seq:0 Cs.Increment));
      (fun _ -> p1_value := C.update_detectable obj ~seq:0 Cs.Increment);
    |]
  in
  let script =
    Sched.Strategy.script
      ~fallback:(fun _ -> Sched.Strategy.Stop "parked")
      [
        (* p0: run to its announcement (the first shared store), do it,
           then park forever *)
        Sched.Strategy.Run_until (0, fun l -> l = Sched.Prim "tvar.set");
        Sched.Strategy.Run_steps (0, 1);
        Sched.Strategy.Run_to_completion 1;
      ]
  in
  let outcome = Sim.run sim script procs in
  check Alcotest.bool "stopped with p0 parked" true
    (outcome = Sched.World.Stopped "parked");
  (* p1 helped: p0's op is in the trace, ordered first *)
  let nodes = C.trace_nodes obj in
  check Alcotest.int "3 nodes (sentinel + both ops)" 3 (List.length nodes);
  (match nodes with
  | [ (_, _, None); (1, avail0, Some _); (2, avail1, Some _) ] ->
      check Alcotest.bool "p0's helped op not yet available" false
        (avail0 = Onll_core.Trace_intf.durable);
      check Alcotest.bool "p1's op available" true
        (avail1 = Onll_core.Trace_intf.durable)
  | _ -> Alcotest.fail "unexpected trace shape");
  (* p1 observed p0's op: its increment returned 2 *)
  check Alcotest.int "p1 returned 2 (p0's op ordered first)" 2 !p1_value;
  (* p1's single log entry persisted both operations *)
  check Alcotest.(list int) "p1's entry has 2 ops" [ 2 ]
    ((List.nth (C.snapshot obj).Onll_core.Onll.Snapshot.logs 1).Onll_core.Onll.Snapshot.ops_per_entry)

let test_parked_insert_durable_across_crash () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let procs =
    [|
      (fun _ -> ignore (C.update_detectable obj ~seq:0 Cs.Increment));
      (fun _ -> ignore (C.update_detectable obj ~seq:0 Cs.Increment));
    |]
  in
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.Run_until (0, fun l -> l = Sched.Prim "tvar.set");
        Sched.Strategy.Run_steps (0, 1);
        Sched.Strategy.Run_to_completion 1;
        Sched.Strategy.Crash_here;
      ]
  in
  let outcome = Sim.run sim script procs in
  check Alcotest.bool "crashed" true (outcome = Sched.World.Crashed);
  C.recover obj;
  (* p0 never executed anything past its announcement, yet its operation
     was made durable by p1's helping. *)
  check Alcotest.int "both ops recovered" 2 (C.read obj Cs.Get);
  check Alcotest.bool "p0's op linearized" true
    (C.was_linearized obj { Onll_core.Onll.id_proc = 0; id_seq = 0 });
  check Alcotest.bool "p1's op linearized" true
    (C.was_linearized obj { Onll_core.Onll.id_proc = 1; id_seq = 0 })

let test_parked_announcer_resumes_cleanly () =
  (* Same scenario, but instead of crashing, let p0 resume: it must finish
     its own operation (already linked by the helper) exactly once. *)
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let p0_value = ref 0 and p1_value = ref 0 in
  let procs =
    [|
      (fun _ -> p0_value := C.update_detectable obj ~seq:0 Cs.Increment);
      (fun _ -> p1_value := C.update_detectable obj ~seq:0 Cs.Increment);
    |]
  in
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.Run_until (0, fun l -> l = Sched.Prim "tvar.set");
        Sched.Strategy.Run_steps (0, 1);
        Sched.Strategy.Run_to_completion 1;
        Sched.Strategy.Run_to_completion 0;
      ]
  in
  let outcome = Sim.run sim script procs in
  check Alcotest.bool "completed" true (outcome = Sched.World.Completed);
  check Alcotest.int "p0 returned its own position" 1 !p0_value;
  check Alcotest.int "p1 returned 2" 2 !p1_value;
  check Alcotest.int "exactly two increments applied" 2 (C.read obj Cs.Get)

(* The same park, but p1 compacts past p0's node before p0 resumes: the
   compaction makes its checkpoint's node the base, above the node p0 is
   still inserting. p0 must
   still compute its own position from the base it read before its node
   was linked, and recovery must agree with what both returned. *)
let test_parked_announcer_across_prune () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let p0_value = ref 0 and p1_values = ref [] and upto = ref 0 in
  let procs =
    [|
      (fun _ -> p0_value := C.update_detectable obj ~seq:0 Cs.Increment);
      (fun _ ->
        for seq = 0 to 2 do
          p1_values := C.update_detectable obj ~seq Cs.Increment :: !p1_values
        done;
        upto := C.compact obj);
    |]
  in
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.Run_until (0, fun l -> l = Sched.Prim "tvar.set");
        Sched.Strategy.Run_steps (0, 1);
        Sched.Strategy.Run_to_completion 1;
        Sched.Strategy.Run_to_completion 0;
      ]
  in
  check Alcotest.bool "completed" true
    (Sim.run sim script procs = Sched.World.Completed);
  check Alcotest.int "p1 compacted at its last update" 4 !upto;
  check Alcotest.int "the base passed p0's node: the checkpoint's" 4
    (fst (C.trace_base obj));
  check Alcotest.int "p0 returned its own position" 1 !p0_value;
  check Alcotest.(list int) "p1 ordered after p0" [ 4; 3; 2 ] !p1_values;
  check Alcotest.int "four increments" 4 (C.read obj Cs.Get);
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  check Alcotest.int "recovery agrees" 4 (C.read obj Cs.Get);
  List.iter
    (fun (id_proc, id_seq) ->
      check Alcotest.bool
        (Printf.sprintf "p%d seq %d linearized" id_proc id_seq)
        true
        (C.was_linearized obj { Onll_core.Onll.id_proc; id_seq }))
    [ (0, 0); (1, 0); (1, 1); (1, 2) ]

let test_lower_bound_holds_for_wf () =
  let module Lb = Onll_lowerbound.Lowerbound in
  let setup n =
    let sim = Sim.create ~max_processes:n () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
    let obj = C.make Onll_core.Onll.Config.default in
    ( sim,
      Array.init n (fun _ -> fun _ -> ignore (C.update obj Cs.Increment)) )
  in
  let sim, procs = setup 4 in
  let r = Lb.solo_chain sim ~procs in
  check Alcotest.(array int) "solo: one fence each" [| 1; 1; 1; 1 |]
    r.Lb.per_proc_fences;
  let sim, procs = setup 4 in
  let r = Lb.fence_chain sim ~procs in
  check Alcotest.(array int) "fence chain: one fence each" [| 1; 1; 1; 1 |]
    r.Lb.per_proc_fences

(* {1 Crash fuzz on the wait-free construction} *)

let test_wf_crash_fuzz () =
  let module F = Test_support.Fuzz.Make (Onll_specs.Counter) in
  for seed = 1 to 30 do
    let plan =
      {
        Test_support.Fuzz.default_plan with
        seed;
        stack = { Onll_stack.plain with top = Direct (Bare `Wait_free) };
        crash_at = Some (10 + (seed * 9 mod 120));
        policy =
          (if seed mod 2 = 0 then Onll_nvm.Crash_policy.Persist_all
           else Onll_nvm.Crash_policy.Drop_all);
      }
    in
    let r =
      F.run ~plan ~gen_update:Test_support.Gen.Counter.update
        ~gen_read:Test_support.Gen.Counter.read ()
    in
    List.iter
      (fun f -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed f))
      r.Test_support.Fuzz.failures;
    if not r.Test_support.Fuzz.verdict_ok then
      Alcotest.fail (Printf.sprintf "seed %d: checker violation" seed)
  done

let test_wf_fuzzy_bound () =
  let worst = ref 0 in
  for seed = 1 to 15 do
    let sim = Sim.create ~max_processes:3 () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
    let obj = C.make Onll_core.Onll.Config.default in
    let procs =
      Array.init 3 (fun _ ->
          fun _ ->
            for _ = 1 to 5 do
              ignore (C.update obj Cs.Increment)
            done)
    in
    ignore (Sim.run sim (Sched.Strategy.random ~seed) procs);
    worst := max !worst ((C.snapshot obj).Onll_core.Onll.Snapshot.max_fuzzy_window);
    check Alcotest.int "all ops applied" 15 (C.read obj Cs.Get)
  done;
  check Alcotest.bool "Prop 5.2 bound" true (!worst <= 3)

let () =
  Alcotest.run "wf"
    [
      ( "equivalence",
        [
          Alcotest.test_case "sequential counter" `Quick test_sequential_counter;
          Alcotest.test_case "sequential kv" `Quick test_sequential_kv;
          Alcotest.test_case "fence counts" `Quick test_fences_one_per_update;
          Alcotest.test_case "concurrent permutation" `Quick
            test_concurrent_permutation;
          Alcotest.test_case "local views" `Quick test_published_equivalent;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
        ] );
      ( "wait-freedom",
        [
          Alcotest.test_case "helper completes parked insert" `Quick
            test_helper_completes_parked_insert;
          Alcotest.test_case "parked insert durable" `Quick
            test_parked_insert_durable_across_crash;
          Alcotest.test_case "announcer resumes cleanly" `Quick
            test_parked_announcer_resumes_cleanly;
          Alcotest.test_case "parked announcer across a prune" `Quick
            test_parked_announcer_across_prune;
          Alcotest.test_case "lower bound holds" `Quick
            test_lower_bound_holds_for_wf;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "crash fuzz" `Quick test_wf_crash_fuzz;
          Alcotest.test_case "fuzzy bound" `Quick test_wf_fuzzy_bound;
        ] );
    ]
