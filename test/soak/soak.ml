(* One-off soak: heavier than the committed suites. *)
open Test_support
let () =
  (* 1. 500-seed crash fuzz on ONLL counter, all policies, pct+random, wf on/off *)
  let module F = Fuzz.Make (Onll_specs.Counter) in
  let failures = ref 0 in
  for seed = 1 to 500 do
    let plan = { Fuzz.default_plan with
                 seed;
                 n_procs = 4; ops_per_proc = 4;
                 crash_at = Some (5 + (seed * 31) mod 250);
                 use_pct = seed mod 2 = 0;
                 stack = { Onll_stack.plain with
                           top = Direct (Bare (if seed mod 3 = 0 then `Wait_free else `Plain)) };
                 policy = Crash_world.policy_of_seed seed } in
    let r = F.run ~plan ~gen_update:Gen.Counter.update ~gen_read:Gen.Counter.read () in
    if r.Fuzz.failures <> [] || not r.Fuzz.verdict_ok then begin
      incr failures;
      Printf.printf "SEED %d FAILED\n" seed;
      List.iter print_endline r.Fuzz.failures;
      Option.iter print_endline r.Fuzz.verdict
    end
  done;
  Printf.printf "counter soak: 500 runs, %d failures\n%!" !failures;
  (* 2. ledger 300 seeds *)
  let module FL = Fuzz.Make (Onll_specs.Ledger) in
  let lf = ref 0 in
  for seed = 1 to 300 do
    let plan = { Fuzz.default_plan with seed; n_procs = 3; ops_per_proc = 4;
                 crash_at = Some (8 + (seed * 17) mod 200);
                 stack = { Onll_stack.plain with
                           top = Direct (Bare (if seed mod 4 = 0 then `Wait_free else `Plain)) };
                 policy = Onll_nvm.Crash_policy.Random seed } in
    let r = FL.run ~plan ~gen_update:Gen.Ledger.update ~gen_read:Gen.Ledger.read () in
    if r.Fuzz.failures <> [] || not r.Fuzz.verdict_ok then incr lf
  done;
  Printf.printf "ledger soak: 300 runs, %d failures\n%!" !lf;
  (* 3. exhaustive wf 2x2 with crashes; p1 compacts between its updates *)
  let module E = Onll_explore.Explore in
  let mk () =
    let sim = Onll_machine.Sim.create ~max_processes:2 () in
    let module M = (val Onll_machine.Sim.machine sim) in
    let module C = Onll_core.Onll.Make_wait_free (M) (Onll_specs.Counter) in
    let obj = C.make { Onll_core.Onll.Config.default with log_capacity = 8192 } in
    let completed = ref 0 in
    let procs = Array.init 2 (fun p -> fun _ ->
      for k = 0 to 1 do
        ignore (C.update_detectable obj ~seq:k Onll_specs.Counter.Increment);
        incr completed;
        if p = 1 && k = 0 then ignore (C.compact obj)
      done) in
    (sim, procs, fun outcome ->
      match outcome with
      | Onll_sched.Sched.World.Completed ->
          assert (C.read obj Onll_specs.Counter.Get = 4)
      | Onll_sched.Sched.World.Crashed ->
          C.recover obj;
          let v = C.read obj Onll_specs.Counter.Get in
          assert (v >= !completed && v <= 4);
          let lin = ref 0 in
          for p = 0 to 1 do for k = 0 to 1 do
            if C.was_linearized obj { Onll_core.Onll.id_proc = p; id_seq = k }
            then incr lin done done;
          assert (v = !lin)
      | _ -> assert false)
  in
  let stats = E.run ~max_preemptions:1 ~with_crashes:true ~max_runs:400_000 ~mk () in
  Format.printf "wf exhaustive 2x2+crashes: %a@." E.pp_stats stats;
  assert (not stats.E.truncated);
  (* 4. the compaction property's full grid: every engine, every
     workload, fifty log capacities' worth of updates *)
  let module P = Compaction in
  List.iter
    (fun engine ->
      List.iter
        (fun w ->
          P.run ~capacities:50 engine w;
          Printf.printf "compaction %s %s: clean\n%!" (P.engine_name engine)
            (P.workload_name w))
        P.workloads)
    P.engines;
  (* 5. 200k exactly-once updates served in process: the live heap stays
     within 1.5x of the heap after the first 50k *)
  (match P.served_live_words [ 25_000; 100_000 ] with
  | [ at_50k; at_200k ] ->
      Printf.printf
        "served 200k exactly-once updates: %d live words (%d at 50k)\n%!"
        at_200k at_50k;
      assert (2 * at_200k <= 3 * at_50k)
  | _ -> assert false);
  (* 6. a wait-free counter with one idle process, which read before it
     idled or not: the live heap after 80k updates stays within 1.5x of
     the heap after 20k *)
  List.iter
    (fun reads ->
      match P.idle_wait_free_live_words ~reads [ 20_000; 80_000 ] with
      | [ at_20k; at_80k ] ->
          Printf.printf
            "wait-free%s, one idle process, 80k updates: %d live words (%d \
             at 20k)\n%!"
            (if reads then " (a reader)" else "")
            at_80k at_20k;
          assert (2 * at_80k <= 3 * at_20k)
      | _ -> assert false)
    [ false; true ];
  print_endline "SOAK CLEAN"
