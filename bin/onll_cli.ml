(* The onll command-line tool: interactive entry points to the simulator.

   onll figure1                        replay the paper's Figure 1
   onll lowerbound -n 4 -i onll        run the Theorem 6.3 adversary
   onll fuzz -s counter --seeds 50     the E8 crash-fuzz grid on one object
   onll chaos -s kv --seeds 30         media-fault chaos campaign (E12)
   onll chaos -s kv --mirrored         the E13 mirrored grid: faults on
                                       primaries must cost nothing
   onll chaos -s kv --sharded          same grid against the partitioned
                                       construction (E14)
   onll chaos --session --seeds 40     the E15 exactly-once session grid
                                       (counter+ledger x all backends +
                                       the naive calibration arm)
   onll fences -s kv                   fence audit for one object
   onll stats -s counter -n 4          run a workload, print a JSON snapshot
   onll stats -i onll-sharded --shards 8   ... against an 8-shard object
   onll stats --crash 120              ... crash mid-workload and fold the
                                       recovery report into the snapshot
*)

open Cmdliner
open Onll_machine
module Lb = Onll_lowerbound.Lowerbound
module Cs = Onll_specs.Counter

(* {1 figure1} *)

let figure1_cmd =
  let doc = "Replay the four executions of the paper's Figure 1." in
  Cmd.v (Cmd.info "figure1" ~doc)
    Term.(const Onll_scenarios.Figure1.print_all $ const ())

(* {1 lowerbound} *)

let unknown_impl other : 'a =
  Printf.eprintf "unknown implementation %S (try %s)\n" other
    (String.concat ", " Onll_baselines.Registry.names);
  exit 1

module R_counter = Onll_baselines.Registry.Make (Cs)

let impl_setups n impl =
  match
    R_counter.build ~max_processes:n
      ~gen_update:(fun () -> Cs.Increment)
      ~gen_read:(fun () -> Cs.Get)
      impl
  with
  | Some h ->
      let open Onll_baselines.Registry in
      (h.sim, Array.init n (fun _ -> fun _ -> h.update ()))
  | None -> unknown_impl impl

let lowerbound n impl =
  let sim, procs = impl_setups n impl in
  let solo = Lb.solo_chain ~max_steps:100_000 sim ~procs in
  Format.printf "solo-chain  (Case 1): %a@." Lb.pp_report solo;
  let sim, procs = impl_setups n impl in
  let chain = Lb.fence_chain ~max_steps:100_000 sim ~procs in
  Format.printf "fence-chain (Case 2): %a@." Lb.pp_report chain;
  Format.printf "every process fenced at least once: %b@."
    (Lb.all_at_least_one chain)

let lowerbound_cmd =
  let doc = "Run the Theorem 6.3 adversary against an implementation." in
  let n =
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"process count")
  in
  let impl =
    Arg.(
      value & opt string "onll"
      & info [ "i"; "impl" ] ~docv:"IMPL" ~doc:"implementation under test")
  in
  Cmd.v (Cmd.info "lowerbound" ~doc) Term.(const lowerbound $ n $ impl)

(* {1 fuzz} *)

(* Exit 1 naming the [known] specifications unless [spec] is one. *)
let known_spec ~known spec =
  if not (List.mem spec known) then begin
    Printf.eprintf "unknown spec %S (try %s)\n" spec (String.concat ", " known);
    exit 1
  end

(* [onll fuzz -s SPEC]: the E8 arm of one object. *)
let fuzz spec seeds =
  let open Test_support in
  let e8 = Fuzz.e8 ~seeds in
  known_spec ~known:(List.map (fun a -> a.Campaign.name) e8.Campaign.arms) spec;
  let s = Campaign.run ~only:(fun a -> a.Campaign.name = spec) e8 in
  List.iter
    (fun (_, (r : Campaign.row)) ->
      List.iter print_endline r.violations;
      Printf.printf "%s: %d runs, %d crashed, %d failures\n" spec r.runs
        r.crashed (Campaign.get r "failures"))
    s.ran;
  if Campaign.verdict s <> [] then exit 1

let fuzz_cmd =
  let doc =
    "Crash-fuzz an ONLL object over the E8 grid: random schedules, crash \
     points and policies, the wait-free trace on every fifth seed, \
     audited by the durable-linearizability checker."
  in
  let spec =
    Arg.(
      value & opt string "counter"
      & info [ "s"; "spec" ] ~docv:"SPEC" ~doc:"object specification")
  in
  let seeds =
    Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"N" ~doc:"seed count")
  in
  Cmd.v (Cmd.info "fuzz" ~doc) Term.(const fuzz $ spec $ seeds)

(* {1 chaos} *)

(* Exit discipline, uniform across every campaign verb ([chaos], [store
   campaign], [service campaign]): a campaign that breaks a zero
   requirement (violations, duplicates, lost acks, mirrored loss, a crash
   beyond the risk budget) exits with the distinct code [4] — also under
   [--quiet], so scripts can assert on the code alone — while an unmet
   [At_least] (a calibration whose detector never fired, a campaign in
   which nothing was killed) exits 1. Each unmet requirement is named on
   an [UNMET:] line unless [quiet]. *)
let exit_violations = 4

let exit_on_verdict ?(quiet = false) s =
  let open Test_support in
  match Campaign.verdict s with
  | [] -> ()
  | unmet ->
      if not quiet then
        List.iter
          (fun u -> print_endline ("UNMET: " ^ Campaign.describe u))
          unmet;
      exit
        (if List.exists Campaign.is_violation unmet then exit_violations else 1)

(* The one dispatch. [--session] runs the E15 grid, which reads no other
   flag. Otherwise one arm runs with its calibration: [--txn] the E19
   cross-shard transfers and [--relaxed] the E20 bounded-staleness tail,
   each a kv workload that reads [--mirrored] and [--unhardened] only; by
   default the E12/E13/E14/E16 grids on [-s]'s object, where
   [--mirrored], [--sharded] and [--batched] pick the stack.
   [--unhardened] runs the calibration alone, the hardened arm otherwise;
   the campaign's verdict decides the exit code. The relaxed
   calibration's violations are its expected outcome: caught, it exits
   with the violation code (the Makefile smoke asserts exactly that,
   under [--quiet]). *)
let chaos spec seeds unhardened mirrored sharded batched session txn relaxed
    quiet =
  let open Test_support in
  let usage fmt = Printf.kfprintf (fun _ -> exit 1) stderr fmt in
  let kv_workload flag ~workload ~also =
    if sharded || batched || also then
      usage "chaos: %s composes with --mirrored only\n" flag;
    if Option.value spec ~default:"kv" <> "kv" then
      usage "chaos: %s runs the kv %s workload (use -s kv)\n" flag workload
  in
  let mirror plain m = if mirrored then m else plain in
  let c =
    if session then begin
      if unhardened || mirrored || sharded || batched || txn || relaxed then
        usage "chaos: --session composes with no other campaign flag\n";
      if spec <> None then
        usage
          "chaos: --session runs its own counter and ledger grid (drop -s)\n";
      Session_chaos.e15 ~seeds_per_arm:seeds
    end
    else if relaxed then begin
      kv_workload "--relaxed" ~workload:"staleness" ~also:txn;
      Relaxed_chaos.one
        ~name:(mirror "kv/relaxed" "kv/relaxed/mirrored")
        ~seeds ~calibration_seeds:seeds
        (mirror Relaxed_chaos.plan_of_seed Relaxed_chaos.mirrored_plan_of_seed)
    end
    else if txn then begin
      kv_workload "--txn" ~workload:"transfer" ~also:false;
      Txn_chaos.one
        ~name:(mirror "kv/txn" "kv/txn/mirrored")
        ~seeds ~calibration_seeds:seeds
        (mirror Txn_chaos.plan_of_seed Txn_chaos.mirrored_plan_of_seed)
    end
    else begin
      let obj = Option.value spec ~default:"kv" in
      known_spec ~known:(List.map fst Chaos_harness.objects) obj;
      Chaos_harness.one ~obj ~mirrored ~sharded ~batched ~seeds
    end
  in
  let s =
    Campaign.run ~only:(fun a -> Campaign.is_calibration a = unhardened) c
  in
  if not quiet then Campaign.show s;
  exit_on_verdict ~quiet s;
  if unhardened && relaxed then exit exit_violations

let chaos_cmd =
  let doc =
    "Run one seeded chaos campaign and audit it. Every campaign reads \
     $(b,--seeds) and $(b,--quiet); each reads its own flags beside them, \
     and any other flag is a usage error (exit 1). By default, the E12 \
     grid on the $(b,-s) object (counter, queue, kv or stack): crashes with \
     media faults (bit flips, torn spans), transient flush/fence failures \
     and nested crashes during recovery, audited for durably linearizable \
     recovery or an exactly reported loss. It reads $(b,-s), \
     $(b,--unhardened), $(b,--mirrored), $(b,--sharded) and \
     $(b,--batched); the last three pick the object stack (the type \
     Onll_stack.t). $(b,--mirrored) runs the E13 grid: two-way replicated \
     logs with faults confined to primaries plus online rot and periodic \
     scrubs, where loss of any kind (even reported) is a failure, since \
     every fault has an intact mirror copy. $(b,--sharded) runs against the \
     E14 partitioned construction (4 shards), $(b,--batched) against the \
     E16 group commit, where the crash lands mid-window, before or after \
     the fence that covers it, and both against sharded group commit. $(b,--session) \
     runs the E15 exactly-once session grid instead: counter and ledger \
     workloads through exactly-once client sessions over the plain, \
     mirrored and sharded stacks, plus the naive at-least-once calibration \
     arm, $(i,SEEDS) seeds per arm. It reads no other flag, $(b,-s) \
     included. $(b,--txn) runs the E19 cross-shard transaction atomicity \
     campaign: seeded kv transfers cut by crashes at swept schedule points, \
     audited all-or-nothing with balanced books. $(b,--relaxed) runs the \
     E20 bounded-staleness campaign: seeded crashes cut the risk-budgeted \
     volatile tail at swept depths, audited for quantified suffix-only \
     loss, idempotent recovery and convergence. These two are kv \
     workloads and read $(b,-s kv), $(b,--mirrored) and $(b,--unhardened) \
     only. $(b,--unhardened) runs the campaign's calibration instead \
     (E12's truncating recovery, E19's no-sweep recovery, E20's \
     ledger-free recovery), which must be caught; the E20 calibration, \
     caught, exits with the violation code, its expected outcome. Any \
     campaign that records violations exits with code 4 — also under \
     $(b,--quiet), which suppresses all output — so scripts can assert on \
     the exit code alone (1 is reserved for usage errors and calibrations \
     whose detector never fired)."
  in
  let spec =
    Arg.(
      value
      & opt (some ~none:"kv" string) None
      & info [ "s"; "spec" ] ~docv:"SPEC" ~doc:"object specification")
  in
  let seeds =
    Arg.(value & opt int 30 & info [ "seeds" ] ~docv:"N" ~doc:"seed count")
  in
  let unhardened =
    Arg.(
      value & flag
      & info [ "unhardened" ]
          ~doc:"run the deliberately broken calibration recovery")
  in
  let mirrored =
    Arg.(
      value & flag
      & info [ "mirrored" ]
          ~doc:"two-way mirrored logs, faults on primaries only (E13)")
  in
  let sharded =
    Arg.(
      value & flag
      & info [ "sharded" ]
          ~doc:"run against the 4-shard partitioned construction (E14)")
  in
  let batched =
    Arg.(
      value & flag
      & info [ "batched" ]
          ~doc:
            "run against the E16 group-commit construction (crash lands \
             mid-window)")
  in
  let session =
    Arg.(
      value & flag
      & info [ "session" ]
          ~doc:
            "run the E15 exactly-once session grid (all arms, \
             SEEDS seeds each) instead")
  in
  let txn =
    Arg.(
      value & flag
      & info [ "txn" ]
          ~doc:
            "run the E19 cross-shard transaction atomicity campaign (kv \
             transfers, all-or-nothing after every crash)")
  in
  let relaxed =
    Arg.(
      value & flag
      & info [ "relaxed" ]
          ~doc:
            "run the E20 bounded-staleness campaign (risk-budgeted lazy \
             fences; crash loss must be the budgeted suffix, exactly \
             reported)")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ]
          ~doc:
            "suppress all campaign output; the exit code still reports \
             violations (code 4)")
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const chaos $ spec $ seeds $ unhardened $ mirrored $ sharded $ batched
      $ session $ txn $ relaxed $ quiet)

(* {1 fences} *)

let fences updates =
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let procs =
    Array.init 3 (fun _ ->
        fun _ ->
          for _ = 1 to updates do
            ignore (C.update obj Cs.Increment);
            ignore (C.read obj Cs.Get)
          done)
  in
  ignore (Sim.run sim (Onll_sched.Sched.Strategy.random ~seed:1) procs);
  let stats = Sim.stats sim in
  Format.printf "workload: 3 processes x %d updates + %d reads@." updates
    updates;
  Format.printf "machine:  %a@." Onll_nvm.Memory.Stats.pp stats;
  Format.printf "persistent fences / update = %g (Theorem 5.1 bound: 1)@."
    (float_of_int stats.Onll_nvm.Memory.Stats.persistent_fences
    /. float_of_int (3 * updates))

let fences_cmd =
  let doc = "Audit ONLL's persistent-fence count on a counter workload." in
  let updates =
    Arg.(
      value & opt int 50
      & info [ "u"; "updates" ] ~docv:"N" ~doc:"updates per process")
  in
  Cmd.v (Cmd.info "fences" ~doc) Term.(const fences $ updates)

(* {1 stats} *)

(* One workload shape for every spec: each process performs [updates]
   updates with a read after each one, under a seeded random schedule,
   against an implementation built with an active sink installed in both
   the simulated machine and the object. The sink's registry is then the
   run's metrics snapshot. With [crash_at = Some step], the schedule cuts
   at that step and the implementation's hardened recovery runs; its
   {!Onll_core.Onll.Recovery_report} is folded into the same registry
   (the [recovery.*] keys of the snapshot) and pretty-printed to stderr,
   keeping stdout pure JSON/CSV. *)
module Stats_run (S : Onll_core.Spec.S) = struct
  module R = Onll_baselines.Registry.Make (S)

  let go ~impl ~shards ~procs ~updates ~seed ~scrub_every ~crash_at
      ~gen_update ~gen_read =
    let sink = Onll_obs.Sink.make () in
    let rng = Onll_util.Splitmix.create seed in
    match
      R.build ~sink ~shards ~max_processes:procs
        ~gen_update:(fun () -> gen_update rng)
        ~gen_read:(fun () -> gen_read rng)
        impl
    with
    | None -> unknown_impl impl
    | Some h ->
        let open Onll_baselines.Registry in
        (if scrub_every > 0 && h.scrub = None then begin
           Printf.eprintf "implementation %S has no online scrubber\n" impl;
           exit 1
         end);
        (if crash_at <> None && h.recover = None then begin
           Printf.eprintf
             "implementation %S has no hardened recovery; --crash-at needs \
              one of: %s\n"
             impl
             (String.concat ", " Onll_baselines.Registry.recovery_capable);
           exit 1
         end);
        let strategy =
          match crash_at with
          | None -> Onll_sched.Sched.Strategy.random ~seed
          | Some n ->
              Onll_sched.Sched.Strategy.random_with_crash ~seed
                ~crash_at_step:n
        in
        let outcome =
          Sim.run h.sim strategy
            (Array.init procs (fun _ ->
                 fun _ ->
                  for k = 1 to updates do
                    h.update ();
                    h.read ();
                    if scrub_every > 0 && k mod scrub_every = 0 then
                      Option.iter (fun f -> f ()) h.scrub
                  done))
        in
        (match outcome with
        | Onll_sched.Sched.World.Completed ->
            if crash_at <> None then
              Printf.eprintf
                "note: the workload completed before step %d; nothing \
                 crashed\n"
                (Option.get crash_at)
        | Onll_sched.Sched.World.Crashed ->
            let report = (Option.get h.recover) () in
            Onll_core.Onll.Recovery_report.to_metrics
              (Onll_obs.Sink.registry sink)
              report;
            Format.eprintf "post-crash recovery: %a@."
              Onll_core.Onll.Recovery_report.pp report
        | Onll_sched.Sched.World.Stopped _ -> assert false);
        sink
end

let stats spec impl shards procs updates seed scrub_every crash_at csv
    output =
  let open Test_support in
  let finish sink =
    let meta =
      [
        ("spec", spec);
        ("impl", impl);
        ("shards", string_of_int shards);
        ("processes", string_of_int procs);
        ("updates_per_proc", string_of_int updates);
        ("reads_per_proc", string_of_int updates);
        ("seed", string_of_int seed);
        ("scrub_every", string_of_int scrub_every);
      ]
      @
      match crash_at with
      | None -> []
      | Some n -> [ ("crash_at", string_of_int n) ]
    in
    let registry = Onll_obs.Sink.registry sink in
    let rendered =
      if csv then Onll_obs.Export.csv ~meta registry
      else Onll_obs.Export.json ~meta registry
    in
    match output with
    | None -> print_string rendered
    | Some path ->
        Onll_obs.Export.write_file ~path rendered;
        Printf.printf "wrote %s\n" path
  in
  known_spec
    ~known:[ "counter"; "register"; "queue"; "kv"; "stack"; "set"; "ledger" ]
    spec;
  let (module G : Gen.S) = List.assoc spec Gen.by_name in
  let module W = Stats_run (G.Spec) in
  finish
    (W.go ~impl ~shards ~procs ~updates ~seed ~scrub_every ~crash_at
       ~gen_update:G.update ~gen_read:G.read)

let stats_cmd =
  let doc =
    "Run a seeded workload against an implementation with the observability \
     sink installed, then print the metrics snapshot (JSON by default) — \
     per-operation fence attribution, fuzzy-window histogram, machine \
     events."
  in
  let spec =
    Arg.(
      value & opt string "counter"
      & info [ "s"; "spec" ] ~docv:"SPEC" ~doc:"object specification")
  in
  let impl =
    Arg.(
      value & opt string "onll"
      & info [ "i"; "impl" ] ~docv:"IMPL" ~doc:"implementation under test")
  in
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"S"
          ~doc:"shard count (onll-sharded and onll-txn only; others ignore it)")
  in
  let procs =
    Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"process count")
  in
  let updates =
    Arg.(
      value & opt int 25
      & info [ "u"; "updates" ] ~docv:"N" ~doc:"updates per process")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"schedule seed")
  in
  let scrub_every =
    Arg.(
      value & opt int 0
      & info [ "scrub-every" ] ~docv:"N"
          ~doc:
            "run an online scrub step every N updates per process (0 = \
             never; onll implementations only)")
  in
  let crash_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash" ] ~docv:"STEP"
          ~doc:
            "crash the machine at this scheduler step, run the hardened \
             recovery, and fold its report into the snapshot (the \
             recovery.* keys; the report is also pretty-printed to \
             stderr)")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"emit CSV instead of JSON")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"write to FILE, not stdout")
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const stats $ spec $ impl $ shards $ procs $ updates $ seed
      $ scrub_every $ crash_at $ csv $ output)

(* {1 explore} *)

let explore procs ops k with_crashes =
  let mk () =
    let sim = Sim.create ~max_processes:procs () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make (M) (Cs) in
    let obj = C.make { Onll_core.Onll.Config.default with log_capacity = 8192 } in
    let completed = ref 0 in
    let work =
      Array.init procs (fun _ ->
          fun _ ->
            for _ = 1 to ops do
              ignore (C.update obj Cs.Increment);
              incr completed
            done)
    in
    ( sim,
      work,
      fun outcome ->
        match outcome with
        | Onll_sched.Sched.World.Completed ->
            assert (C.read obj Cs.Get = procs * ops)
        | Onll_sched.Sched.World.Crashed ->
            C.recover obj;
            let v = C.read obj Cs.Get in
            assert (v >= !completed && v <= procs * ops)
        | Onll_sched.Sched.World.Stopped _ -> assert false )
  in
  let stats =
    Onll_explore.Explore.run ~max_preemptions:k ~with_crashes
      ~max_runs:500_000 ~mk ()
  in
  Format.printf
    "explored the FULL space of schedules (<= %d preemptions%s): %a@." k
    (if with_crashes then ", crash at every decision point" else "")
    Onll_explore.Explore.pp_stats stats;
  Format.printf "every execution satisfied the durability assertions@."

let explore_cmd =
  let doc =
    "Systematically enumerate every preemption-bounded schedule (and \
     optionally a crash at every decision point) of a small ONLL counter \
     program, asserting durability on each execution."
  in
  let procs =
    Arg.(value & opt int 2 & info [ "p"; "procs" ] ~docv:"N" ~doc:"processes")
  in
  let ops =
    Arg.(value & opt int 1 & info [ "u"; "ops" ] ~docv:"N" ~doc:"updates each")
  in
  let k =
    Arg.(
      value & opt int 1
      & info [ "k"; "preemptions" ] ~docv:"K" ~doc:"preemption bound")
  in
  let crashes =
    Arg.(value & flag & info [ "crashes" ] ~doc:"branch on crashes too")
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(const explore $ procs $ ops $ k $ crashes)

(* {1 rationale} *)

let rationale_cmd =
  let doc =
    "Run the paper's §3.1 case analysis: the three bad designs (reader \
     returns / waits / helps) and ONLL's escape, under the same adversarial \
     schedule."
  in
  Cmd.v (Cmd.info "rationale" ~doc)
    Term.(const Onll_scenarios.Rationale.print_all $ const ())

(* {1 store / service campaign: the kill campaigns (E17, E18)} *)

(* A forked campaign over a scratch directory ([--dir], created if
   missing, or a fresh one under $TMPDIR; removed after unless [--keep]),
   shown and exited on its verdict. A [--dir] that already holds a kept
   campaign's stores is a usage error (exit 1) and is left as it is. *)
let scratch_campaign ~prefix dir keep campaign =
  let open Test_support in
  let base =
    match dir with
    | Some d ->
        if not (Sys.file_exists d) then Unix.mkdir d 0o755;
        d
    | None -> Temp_dir.fresh ~prefix
  in
  let s =
    try Campaign.run (campaign base)
    with Temp_dir.Exists d ->
      Printf.eprintf
        "%s already holds a campaign's stores (%s): remove it or pass \
         another --dir\n"
        base d;
      exit 1
  in
  if not keep then Temp_dir.rm_rf base;
  Campaign.show s;
  exit_on_verdict s

let store_campaign seeds target dir keep =
  let open Test_support in
  scratch_campaign ~prefix:"onll-e17-campaign" dir keep (fun dir ->
      File_chaos.e17 ~runner:File_chaos.Forked ~dir ~seeds ~target)

let store_campaign_cmd =
  let doc =
    "The E17 kill -9 crash campaign: run every epoch in a forked child \
     against file-backed stores (plain and mirrored), SIGKILL it at \
     seeded fence points — before, during and after the sector \
     write-backs and at the fsync itself — rerun recovery in the next \
     epoch, and audit exactly-once: no acked update lost, no update \
     applied twice, fsync-fault arms never ack past a failed fence. Each \
     unmet requirement prints an UNMET line; exits 4 on any violation, 1 \
     when a restart arm killed no epoch or a sticky-EIO arm never \
     degraded."
  in
  let seeds =
    Arg.(
      value & opt int 8
      & info [ "seeds" ] ~docv:"N" ~doc:"kill schedules per arm")
  in
  let target =
    Arg.(
      value & opt int 8
      & info [ "target" ] ~docv:"N" ~doc:"counter target per scenario")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"campaign scratch directory (default: under \\$TMPDIR)")
  in
  let keep =
    Arg.(
      value & flag
      & info [ "keep" ] ~doc:"keep the store directories for inspection")
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(const store_campaign $ seeds $ target $ dir $ keep)

let store_cmd =
  let doc =
    "The real file-backed store (E17): regions are files, a persistent \
     fence is fsync. The subcommand runs the kill -9 crash campaign."
  in
  Cmd.group (Cmd.info "store" ~doc) [ store_campaign_cmd ]

(* {1 serve / load: the crash-tolerant network front-end (E18)} *)

let parse_construction s =
  match Onll_serve.Service.construction_of_string s with
  | Some c -> c
  | None ->
      Printf.eprintf
        "unknown construction %S (plain|mirrored|sharded|batched)\n" s;
      exit 2

let serve socket dir construction token max_clients log_capacity
    idle_timeout_ms max_conns drain_grace_ms fence_ns retry_budget backoff_ns
    kill_at_fence kill_after_sectors fsync_eio_from fsync_eio_count
    enospc_at_write short_write_prob seed stats_out =
  let construction = parse_construction construction in
  let sink = Onll_obs.Sink.make () in
  let scfg =
    {
      (Onll_serve.Server.default_config ~socket_path:socket) with
      idle_timeout_ms;
      max_conns;
      drain_grace_ms;
      on_ready = (fun () -> Printf.printf "READY %s\n%!" socket);
    }
  in
  let finish ~degraded =
    (match stats_out with
    | Some path ->
        Onll_obs.Export.write_file ~path
          (Onll_obs.Export.json
             ~meta:
               [
                 ("experiment", "e18");
                 ( "construction",
                   Onll_serve.Service.construction_name construction );
               ]
             (Onll_obs.Sink.registry sink))
    | None -> ());
    exit (if degraded then 3 else 0)
  in
  match dir with
  | None ->
      (* in-memory backend: real durability semantics are the file
         machine's; this one serves SLO experiments with emulated fences *)
      let nat = Native.create ~fence_ns ~sink ~max_processes:1 () in
      ignore (Native.register nat);
      let module M = (val Native.machine nat) in
      let module Srv = Onll_serve.Server.Make (M) in
      let svc =
        Srv.Svc.make ~sink ~token ~max_clients ?log_capacity construction
      in
      Srv.run svc scfg;
      finish ~degraded:false
  | Some dir ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Printf.eprintf "store directory %S does not exist\n" dir;
        exit 2
      end;
      let fmach =
        File_machine.create ~retry_budget ~backoff_ns ~sink ~dir
          ~max_processes:1 ()
      in
      let fplan =
        if
          kill_at_fence = 0 && fsync_eio_from = 0 && enospc_at_write = 0
          && short_write_prob = 0. && seed = 0
        then None
        else
          Some
            {
              Onll_faults.Faults.File_plan.base =
                { Onll_faults.Faults.Plan.none with seed };
              kill_at_fence;
              kill_after_sectors;
              fsync_eio_from;
              fsync_eio_count;
              drop_pages_on_eio = true;
              enospc_at_write;
              short_write_prob;
              kill_mode = Onll_faults.Faults.File_plan.Sigkill;
            }
      in
      let inj =
        Option.map
          (fun p ->
            Onll_faults.Faults.install_file (File_machine.memory fmach) p)
          fplan
      in
      ignore (File_machine.register fmach);
      let module M = (val File_machine.machine fmach) in
      let module Srv = Onll_serve.Server.Make (M) in
      let svc =
        Srv.Svc.make ~sink ~token ~max_clients ?log_capacity construction
      in
      Srv.run svc scfg;
      let degraded = Srv.Svc.degraded svc in
      Option.iter Onll_faults.Faults.remove_file inj;
      File_machine.close fmach;
      finish ~degraded

let serve_cmd =
  let doc =
    "Serve the shared durable counter over a Unix-domain socket: \
     exactly-once updates at one persistent fence each, deduplicated by a \
     per-client table in the object's own state, over any of the four \
     constructions, on the in-memory machine \
     (SLO experiments) or the file-backed store (--dir; fsync fences, \
     crash-recoverable). Prints READY once listening; SIGTERM drains \
     gracefully — stop accepting, answer in-flight requests (refusing \
     not-yet-durable work), fence, exit. The kill/fault flags arm the \
     file fault injector for the E18 chaos campaign: the server SIGKILLs \
     itself mid-fence and the supervisor audits the survivors."
  in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"file-backed store directory (must exist); default in-memory")
  in
  let construction =
    Arg.(
      value & opt string "plain"
      & info [ "construction" ] ~docv:"C"
          ~doc:"plain | mirrored | sharded | batched")
  in
  let token =
    Arg.(
      value & opt string "onll"
      & info [ "token" ] ~docv:"TOKEN" ~doc:"shared authentication token")
  in
  let max_clients =
    Arg.(
      value & opt int 1024
      & info [ "max-clients" ] ~docv:"N"
          ~doc:
            "served client-id range (the object log adds room for three \
             checkpoints of a full client table, 48 bytes per client)")
  in
  let log_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "log-capacity" ] ~docv:"N"
          ~doc:"shared object log room for updates between compactions")
  in
  let idle_timeout_ms =
    Arg.(
      value & opt int 30_000
      & info [ "idle-timeout-ms" ] ~docv:"MS"
          ~doc:"reap connections idle this long (0 = never)")
  in
  let max_conns =
    Arg.(
      value & opt int 12_000
      & info [ "max-conns" ] ~docv:"N" ~doc:"connection cap")
  in
  let drain_grace_ms =
    Arg.(
      value & opt int 2_000
      & info [ "drain-grace-ms" ] ~docv:"MS"
          ~doc:"max flush time after SIGTERM")
  in
  let fence_ns =
    Arg.(
      value & opt int 500
      & info [ "fence-ns" ] ~docv:"NS"
          ~doc:"emulated fence duration (in-memory backend)")
  in
  let retry_budget =
    Arg.(
      value & opt int 8
      & info [ "retry-budget" ] ~docv:"N"
          ~doc:"fence write-back attempts before sticky degradation")
  in
  let backoff_ns =
    Arg.(
      value & opt int 0
      & info [ "backoff-ns" ] ~docv:"NS" ~doc:"base retry backoff (ns)")
  in
  let kill_at_fence =
    Arg.(
      value & opt int 0
      & info [ "kill-at-fence" ] ~docv:"N"
          ~doc:"SIGKILL self at the N-th persistent fence (0 = never)")
  in
  let kill_after_sectors =
    Arg.(
      value & opt int 0
      & info [ "kill-after-sectors" ] ~docv:"K"
          ~doc:
            "where inside that fence: 0 before any write, K>0 after K \
             sector writes, -1 at the fsync point")
  in
  let fsync_eio_from =
    Arg.(
      value & opt int 0
      & info [ "fsync-eio-from" ] ~docv:"N"
          ~doc:"first fsync (1-based) to fail with EIO (0 = never)")
  in
  let fsync_eio_count =
    Arg.(
      value & opt int 1
      & info [ "fsync-eio-count" ] ~docv:"N"
          ~doc:"how many consecutive fsyncs fail")
  in
  let enospc_at_write =
    Arg.(
      value & opt int 0
      & info [ "enospc-at-write" ] ~docv:"N"
          ~doc:"the N-th sector write raises ENOSPC (0 = never)")
  in
  let short_write_prob =
    Arg.(
      value & opt float 0.
      & info [ "short-write-prob" ] ~docv:"P"
          ~doc:"per-sector short (torn) write probability")
  in
  let seed =
    Arg.(
      value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"injector seed")
  in
  let stats_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-out" ] ~docv:"FILE"
          ~doc:"write the serve.* metrics snapshot (JSON) on exit")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket $ dir $ construction $ token $ max_clients
      $ log_capacity $ idle_timeout_ms $ max_conns
      $ drain_grace_ms $ fence_ns $ retry_budget $ backoff_ns $ kill_at_fence
      $ kill_after_sectors $ fsync_eio_from $ fsync_eio_count
      $ enospc_at_write $ short_write_prob $ seed $ stats_out)

let load socket clients first_client rate duration_ms seed token deadline_ms
    max_attempts backoff_base_ms backoff_cap_ms churn_every_ms churn_frac
    connect_timeout_ms tier base no_audit json_out =
  let open Onll_serve in
  let tier =
    match Protocol.tier_of_string tier with
    | Some t -> t
    | None ->
        Printf.eprintf
          "load: bad --tier %S (exactly-once | strict | stale:<k>)\n" tier;
        exit 1
  in
  let cfg =
    {
      Loadgen.socket_path = socket;
      clients;
      first_client;
      rate_hz = rate;
      duration_ms;
      seed;
      token;
      deadline_ms;
      max_attempts;
      backoff_base_ms;
      backoff_cap_ms;
      churn_every_ms;
      churn_frac;
      connect_timeout_ms;
      tier;
    }
  in
  let audit = Loadgen.Audit.create () in
  let rep = Loadgen.run ~audit cfg in
  Format.printf "e18 load: %a@." Loadgen.pp_report rep;
  Option.iter
    (fun path ->
      Onll_obs.Export.write_file ~path (Loadgen.report_to_json rep))
    json_out;
  if not no_audit then begin
    match rep.Loadgen.r_final_value with
    | None ->
        Printf.eprintf "audit: no final counter read (server unreachable)\n";
        exit 1
    | Some v ->
        let viols = Loadgen.Audit.check_final audit ~counter_value:(v - base) in
        List.iter (Printf.eprintf "violation: %s\n") viols;
        if viols <> [] then exit 1
  end

let load_cmd =
  let doc =
    "Open-loop load generator for `onll serve`: drive N concurrent \
     clients (poll(2), one process) with seeded exponential arrivals, \
     per-op deadlines, bounded backoff on shed, reconnect-and-resolve on \
     timeouts and resets, and optional disconnect/reattach churn floods. \
     Reports p50/p99/p999 arrival-to-confirm latency, shed rate and \
     goodput, then audits exactly-once against a direct counter read \
     (exit 1 on any duplicate apply or lost ack)."
  in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"server socket path")
  in
  let clients =
    Arg.(
      value & opt int 64
      & info [ "clients" ] ~docv:"N" ~doc:"concurrent clients")
  in
  let first_client =
    Arg.(
      value & opt int 0
      & info [ "first-client" ] ~docv:"ID" ~doc:"first client id")
  in
  let rate =
    Arg.(
      value & opt float 50.
      & info [ "rate" ] ~docv:"HZ" ~doc:"per-client arrival rate (ops/s)")
  in
  let duration_ms =
    Arg.(
      value & opt int 2_000
      & info [ "duration-ms" ] ~docv:"MS"
          ~doc:"issuing window (0 = resolve-only pass)")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"arrival seed")
  in
  let token =
    Arg.(
      value & opt string "onll"
      & info [ "token" ] ~docv:"TOKEN" ~doc:"authentication token")
  in
  let deadline_ms =
    Arg.(
      value & opt int 500
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"per-op deadline stamped on submits (0 = none)")
  in
  let max_attempts =
    Arg.(
      value & opt int 8
      & info [ "max-attempts" ] ~docv:"N" ~doc:"per-op shed-retry budget")
  in
  let backoff_base_ms =
    Arg.(
      value & opt int 1
      & info [ "backoff-base-ms" ] ~docv:"MS"
          ~doc:
            "base of the shed-retry backoff: retry $(i,n) of a shed op \
             waits this times 2^($(i,n)-1), at most $(b,--backoff-cap-ms), \
             plus up to as much again at random")
  in
  let backoff_cap_ms =
    Arg.(
      value & opt int 64
      & info [ "backoff-cap-ms" ] ~docv:"MS"
          ~doc:
            "cap of the shed-retry backoff: the doubled wait grows no \
             further (the random part adds up to as much again)")
  in
  let churn_every_ms =
    Arg.(
      value & opt int 0
      & info [ "churn-every-ms" ] ~docv:"MS"
          ~doc:"disconnect/reattach flood period (0 = off)")
  in
  let churn_frac =
    Arg.(
      value & opt float 0.
      & info [ "churn-frac" ] ~docv:"F"
          ~doc:"fraction of connected clients hard-closed per flood")
  in
  let connect_timeout_ms =
    Arg.(
      value & opt int 3_000
      & info [ "connect-timeout-ms" ] ~docv:"MS"
          ~doc:"reconnect budget against a dead/restarting server")
  in
  let tier =
    Arg.(
      value
      & opt string "exactly-once"
      & info [ "tier" ] ~docv:"TIER"
          ~doc:
            "durability tier requested at Hello (E20): $(b,exactly-once) \
             (the default session contract), $(b,strict) (one fence per \
             update, no dedup) or $(b,stale:k) (fence-free acks, at most \
             k acknowledged updates at risk). The relaxed tiers waive \
             server-side dedup — combine with $(b,--no-audit) under \
             fault-heavy schedules.")
  in
  let base =
    Arg.(
      value & opt int 0
      & info [ "base" ] ~docv:"N"
          ~doc:"counter value before this run (audit subtracts it)")
  in
  let no_audit =
    Arg.(
      value & flag
      & info [ "no-audit" ]
          ~doc:"skip the exactly-once audit (e.g. store reused across runs)")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"write the report as JSON")
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      const load $ socket $ clients $ first_client $ rate $ duration_ms
      $ seed $ token $ deadline_ms $ max_attempts $ backoff_base_ms
      $ backoff_cap_ms $ churn_every_ms $ churn_frac $ connect_timeout_ms
      $ tier $ base $ no_audit $ json_out)

let service_campaign seeds dir keep =
  let open Test_support in
  scratch_campaign ~prefix:"onll-e18-campaign" dir keep (fun dir ->
      Service_chaos.e18c ~worker:Sys.executable_name ~dir ~seeds)

let service_campaign_cmd =
  let doc =
    "The E18 fault-storm campaign: spawn `onll serve` subprocesses over \
     real sockets and file-backed stores, drive them with the open-loop \
     load generator, SIGKILL the server mid-fence at seeded points \
     (plain and mirrored), flood it with disconnect/reattach churn, land \
     SIGTERM mid-load, and drill sticky media degradation — then resolve \
     every in-doubt operation against a clean restart and audit \
     exactly-once: 0 duplicate applies, 0 lost acks. Each unmet \
     requirement prints an UNMET line; exits 4 on any violation, 1 when \
     no server was killed."
  in
  let seeds =
    Arg.(
      value & opt int 8
      & info [ "seeds" ] ~docv:"N" ~doc:"kill schedules per arm")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"campaign scratch directory (default: under \\$TMPDIR)")
  in
  let keep =
    Arg.(
      value & flag
      & info [ "keep" ] ~doc:"keep the store directories for inspection")
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(const service_campaign $ seeds $ dir $ keep)

let service_cmd =
  let doc =
    "The crash-tolerant network front-end (E18): campaign and drills \
     around `onll serve` / `onll load`."
  in
  Cmd.group (Cmd.info "service" ~doc) [ service_campaign_cmd ]

(* {1 simulate} *)

let simulate procs ops seed crash_at =
  let sim = Sim.create ~max_processes:procs ~trace_log:true () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let events = ref [] in
  let body p _ =
    for k = 1 to ops do
      let v = C.update obj Cs.Increment in
      events := Printf.sprintf "p%d: update #%d returned %d" p k v :: !events
    done
  in
  let strategy =
    match crash_at with
    | None -> Onll_sched.Sched.Strategy.random ~seed
    | Some n ->
        Onll_sched.Sched.Strategy.random_with_crash ~seed ~crash_at_step:n
  in
  let outcome = Sim.run sim strategy (Array.init procs (fun p -> body p)) in
  Printf.printf "schedule (proc, primitive):\n  ";
  List.iteri
    (fun i (p, l) ->
      if i > 0 && i mod 8 = 0 then Printf.printf "\n  ";
      Printf.printf "p%d:%-10s " p (Onll_sched.Sched.label_to_string l))
    (Onll_sched.Sched.World.trace (Sim.world sim));
  Printf.printf "\n\ncompletions (in real-time order):\n";
  List.iter (Printf.printf "  %s\n") (List.rev !events);
  (match outcome with
  | Onll_sched.Sched.World.Crashed ->
      Printf.printf "\n*** CRASH ***\n";
      C.recover obj;
      Printf.printf "recovered value: %d\n" (C.read obj Cs.Get);
      Printf.printf "recovered operations:\n";
      List.iter
        (fun (id, idx) ->
          Format.printf "  idx %d: %a@." idx Onll_core.Onll.pp_op_id id)
        (C.recovered_ops obj)
  | Onll_sched.Sched.World.Completed ->
      Printf.printf "\ncompleted; value: %d\n" (C.read obj Cs.Get)
  | Onll_sched.Sched.World.Stopped m -> Printf.printf "stopped: %s\n" m);
  let stats = Sim.stats sim in
  Format.printf "machine: %a@." Onll_nvm.Memory.Stats.pp stats

let simulate_cmd =
  let doc =
    "Run a counter workload under a seeded schedule and narrate every \
     scheduling step, completion, and (optionally) the crash + recovery."
  in
  let procs =
    Arg.(value & opt int 2 & info [ "p"; "procs" ] ~docv:"N" ~doc:"processes")
  in
  let ops =
    Arg.(
      value & opt int 2 & info [ "u"; "ops" ] ~docv:"N" ~doc:"updates each")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"schedule seed")
  in
  let crash_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-at" ] ~docv:"STEP" ~doc:"inject a crash at this step")
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const simulate $ procs $ ops $ seed $ crash_at)

let () =
  let doc =
    "ONLL: durable universal construction for non-volatile memory \
     (reproduction of Cohen, Guerraoui & Zablotchi, SPAA'18)"
  in
  let info = Cmd.info "onll" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figure1_cmd;
            rationale_cmd;
            explore_cmd;
            lowerbound_cmd;
            fuzz_cmd;
            chaos_cmd;
            fences_cmd;
            stats_cmd;
            store_cmd;
            serve_cmd;
            load_cmd;
            service_cmd;
            simulate_cmd;
          ]))
