(** The benchmark harness: regenerates every empirical artifact of the
    paper (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
    paper-vs-measured). Run all experiments with [dune exec
    bench/main.exe], or a subset by id, e.g. [dune exec bench/main.exe e1
    f2]. *)

let experiments =
  [
    ("e1", "fences per operation, all objects x implementations (Thm 5.1)",
     Fence_audit.run);
    ("e2", "lower-bound adversary schedules (Thm 6.3)", Lower_bound_bench.run);
    ("e3", "throughput vs domains, native machine", Throughput.run_e3);
    ("e4", "read cost vs history: published states (§8)", Read_cost.run);
    ("e5", "throughput vs fence latency, native machine", Throughput.run_e5);
    ("e6", "recovery cost and reclamation (§8)", Recovery_bench.run);
    ("e7", "substrate micro-benchmarks (bechamel)", Micro.run);
    ("e8", "durable-linearizability crash-fuzz campaign",
     Harness.campaign_experiment "e8" (Test_support.Fuzz.e8 ~seeds:80));
    ("e9", "systematic schedule + crash-point exploration", Explore_bench.run);
    ("e10", "helping overhead vs process count (ablation)", Helping_bench.run);
    ("e11", "checkpoint-interval tuning curve (ablation)",
     Checkpoint_sweep.run);
    ("e12", "media-fault chaos campaign (hardened recovery + calibration)",
     Harness.campaign_experiment "e12"
       (Test_support.Chaos_harness.e12 ~seeds:130 ~calibration_seeds:30));
    ("e13", "mirrored logs + scrubbing: repair-aware chaos campaign",
     Harness.campaign_experiment "e13"
       (Test_support.Chaos_harness.e13 ~seeds_per_object:110 ~dual_seeds:40
          ~unmirrored_seeds:40));
    ("e14", "shard scaling: partitioned construction, throughput + invariants",
     Shard_scaling.run);
    ("e15", "durable client sessions: exactly-once chaos campaign",
     Harness.campaign_experiment "e15"
       (Test_support.Session_chaos.e15 ~seeds_per_arm:40));
    ("e16", "fence batching / group commit: amortisation + degeneration",
     Group_commit.run);
    ("e17", "file-backed store: kill -9 crash harness + fsync fence cost",
     File_store.run);
    ("e18", "crash-tolerant network front-end: fault-storm SLOs",
     Service_bench.run);
    ("e19", "cross-shard transactions: 1 coordinator fence vs 2PC + atomicity chaos",
     Txn_bench.run);
    ("e20", "bounded staleness: risk-budgeted lazy fences + quantified crash loss",
     Relaxed_bench.run);
    ("e21", "allocation per update and read, asserted ceilings",
     Alloc_budget.run);
    ("e22", "restart budget: process start to READY, four starts",
     Restart_budget.run);
    ("f1", "Figure 1: the four counter executions, replayed",
     Onll_scenarios.Figure1.print_all);
    ("f2", "Figure 2 / Prop 5.2: fuzzy-window bound", Fuzzy_window.run);
  ]

(* Experiments whose campaigns fork. OCaml refuses [Unix.fork] in a
   process that has ever spawned a domain, and the native experiments
   do; so next to other experiments these run in a fresh process of
   this harness. *)
let forking = [ "e17"; "e18" ]

let run_alone id =
  flush stdout;
  match
    Unix.waitpid []
      (Unix.create_process Sys.executable_name
         [| Sys.executable_name; id |]
         Unix.stdin Unix.stdout Unix.stderr)
  with
  | _, Unix.WEXITED 0 -> ()
  | _, st ->
      failwith
        (Printf.sprintf "%s in its own process: %s" id
           (Test_support.Campaign.status_to_string st))

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ -> List.map (fun (id, _, _) -> id) experiments
  in
  List.iter
    (fun id ->
      match List.find_opt (fun (id', _, _) -> id = id') experiments with
      | Some _ when List.mem id forking && List.length requested > 1 ->
          run_alone id
      | Some (_, descr, run) ->
          Printf.printf "\n################ %s — %s ################\n%!" id
            descr;
          let (), dt = Harness.time_it run in
          Printf.printf "[%s done in %.2fs]\n%!" id dt;
          (* return the big native-bench buffers to the OS so later
             experiments do not pay major-GC costs over a bloated heap *)
          Gc.compact ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" id
            (String.concat ", " (List.map (fun (i, _, _) -> i) experiments));
          exit 1)
    requested
