(** E20 — bounded staleness: risk-budgeted lazy fences vs the strict
    Theorem 5.1 price, plus the quantified-crash-loss campaign.

    Three parts, the first two exactly reproducible and gated by
    [onll gate]:

    - {b fence accounting (sim, deterministic)}: the same update
      workload through the relaxed front (the engine's stale tier, built
      as the stack [relaxed(plain,k=8)]) in relaxed mode and in strict
      mode. Strict must cost {e exactly} one persistent fence per update
      (Theorem 5.1); relaxed must land strictly below 1 — and a
      {e solo-after-quiesce}
      run pins the floor: from an empty window, k solo updates cost
      exactly one fence, 1/k per update, the best any k-budgeted
      schedule can do.
    - {b staleness chaos slice (sim, deterministic)}: a small
      {!Test_support.Relaxed_chaos} campaign (plain + mirrored arms,
      swept crash depths, accounting/budget/suffix/prefix/convergence
      audits, zero violations required) plus its unhardened
      calibration, which must be caught.
    - {b seeded campaign + native throughput}: the full campaign at
      [ONLL_E20_SEEDS] seeds per arm (default 200), and a native
      wall-clock comparison of relaxed vs strict update throughput at a
      storage-class 20 us fence — the deferred fence is the story, and
      the speedup approaches the k:1 fence ratio as fence latency
      dominates. Measurements are recorded as ungated gauges; the
      violation and accounting counters are what CI pins. *)

open Onll_machine
module Cs = Onll_specs.Counter

let n_procs = 3
let updates_per_proc = 40
let budget = 8

let env_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

(* relaxed(plain,k=budget) *)
let stack = { Onll_stack.top = Direct (Relaxed (`Plain, budget)); replicas = 1 }

(* {2 Part 1 — fence accounting (deterministic, gated)} *)

(* [procs] simulated processes under [strategy], each through [updates]
   counter increments, all strict or all staleness-k: the run's update
   fences and updates, and the operations still at risk at its end. *)
let sim_arm ~procs ~updates ~strategy ~strict =
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:procs () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Cs) in
  let obj =
    B.build stack
      { Onll_core.Onll.Config.default with sink; log_capacity = 1 lsl 18 }
  in
  let r = Option.get obj.B.relaxed in
  let outcome =
    Sim.run sim strategy
      (Array.init procs (fun _ _ ->
           for _ = 1 to updates do
             if strict then ignore (r.B.update_strict Cs.Increment)
             else ignore (r.B.update_stale ~budget Cs.Increment)
           done))
  in
  assert (outcome = Onll_sched.Sched.World.Completed);
  assert (obj.B.read Cs.Get = procs * updates);
  ( Onll_obs.Metrics.counter_value registry "fences.update",
    Onll_obs.Metrics.counter_value registry "ops.update",
    r.B.pending_ops () )

let fence_accounting summary =
  let total = n_procs * updates_per_proc in
  let arm ~strict =
    sim_arm ~procs:n_procs ~updates:updates_per_proc
      ~strategy:(Onll_sched.Sched.Strategy.random ~seed:42)
      ~strict
  in
  let relaxed_fences, relaxed_ops, _ = arm ~strict:false in
  let strict_fences, strict_ops, _ = arm ~strict:true in
  assert (relaxed_ops = total && strict_ops = total);
  (* The strict tier is the engine's update: exactly 1 pf/update. *)
  assert (strict_fences = total);
  (* Relaxed is strictly below 1 — and strictly above 0: durability is
     deferred, never skipped. *)
  assert (relaxed_fences > 0 && relaxed_fences < total);
  (* Solo-after-quiesce pins the budgeted floor: from an empty tail, k
     solo updates cost exactly one fence — 1/k per update. *)
  let solo_fences, solo_ops, solo_pending =
    sim_arm ~procs:1 ~updates:budget
      ~strategy:Onll_sched.Sched.Strategy.round_robin ~strict:false
  in
  assert (solo_pending = 0);
  assert (solo_ops = budget && solo_fences = 1);
  let add name v =
    Onll_obs.Metrics.add (Onll_obs.Metrics.counter summary name) v
  in
  add "e20.acct.ops" total;
  add "e20.acct.fences.relaxed" relaxed_fences;
  add "e20.acct.fences.strict" strict_fences;
  add "e20.acct.budget" budget;
  add "e20.acct.solo.ops" solo_ops;
  add "e20.acct.solo.fences" solo_fences;
  Printf.printf
    "fence accounting (sim, %d updates, budget k=%d): relaxed %.3f \
     pf/update vs strict %.2f; solo-after-quiesce floor %d fence / %d \
     updates = %.3f (= 1/k)\n"
    total budget
    (float_of_int relaxed_fences /. float_of_int total)
    (float_of_int strict_fences /. float_of_int total)
    solo_fences solo_ops
    (float_of_int solo_fences /. float_of_int solo_ops)

(* {2 Part 2 — staleness chaos slices (deterministic, gated)} *)

(* The gate's part: the fence accounting and a printed, recorded
   12-seed chaos slice, whose verdict the gate acts on. *)
let gate_slices summary =
  fence_accounting summary;
  Harness.campaign ~reg:summary
    (Test_support.Relaxed_chaos.e20 ~seeds:12 ~calibration_seeds:8)

(* {2 Part 3 — seeded campaign + native throughput} *)

let native_throughput summary =
  (* Storage-class fence (~20 us, an SSD-ish flush): the regime where
     the per-update fence is the bill. The relaxed arm pays it once per
     k updates and approaches a k:1 speedup; at cache-line-flush
     latencies per-update CPU dominates and the arms converge. *)
  let fence_ns = 20_000 in
  let total = 20_000 in
  let run_arm strict =
    let native = Native.create ~max_processes:1 ~fence_ns () in
    let module M = (val Native.machine native) in
    let module B = Onll_stack.Make (M) (Cs) in
    let obj =
      B.build stack
        { Onll_core.Onll.Config.default with log_capacity = 1 lsl 24 }
    in
    let r = Option.get obj.B.relaxed in
    let t0 = Unix.gettimeofday () in
    ignore
      (Native.run_workers native
         [
           (fun _ ->
             for k = 1 to total do
               if strict then ignore (r.B.update_strict Cs.Increment)
               else ignore (r.B.update_stale ~budget Cs.Increment);
               if k mod 512 = 0 then obj.B.compact ()
             done;
             (* read from a registered domain: every update landed *)
             assert (obj.B.read Cs.Get = total));
         ]);
    let dt = Unix.gettimeofday () -. t0 in
    Harness.ops_per_sec total dt
  in
  let relaxed = Harness.best_of 2 (fun () -> run_arm false) in
  let strict = Harness.best_of 2 (fun () -> run_arm true) in
  Printf.printf
    "native throughput (%dns fence, budget k=%d): relaxed %.2f kops/s vs \
     strict %.2f kops/s (%.2fx)\n"
    fence_ns budget (relaxed /. 1e3) (strict /. 1e3) (relaxed /. strict);
  Onll_obs.Metrics.set
    (Onll_obs.Metrics.gauge summary "kops.relaxed")
    (relaxed /. 1e3);
  Onll_obs.Metrics.set
    (Onll_obs.Metrics.gauge summary "kops.strict")
    (strict /. 1e3)

(* {2 Part 4 — per-session durability tiers over a real socket} *)

(* The E18 front-end serves all three tiers from one store; the question
   this arm answers is what the budget buys a client population: the
   strict tier pays one fence per confirmed op, staleness-k pays ~1/k.
   One `onll serve` worker, one open-loop pass per tier over disjoint
   client ranges, gauges keyed [e20t.<tier>.*] (wall-clock, never
   gated). The exactly-once pass keeps its cross-pass audit; the relaxed
   tiers waive server-side dedup, so they run audit-free. *)

let tier_slo_pass summary ~worker =
  let module Loadgen = Onll_serve.Loadgen in
  let module Protocol = Onll_serve.Protocol in
  let clients = env_int "ONLL_E20_CLIENTS" 1200 in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "onll-e20-slo-%d.sock" (Unix.getpid ()))
  in
  let pid, ic =
    let r, w = Unix.pipe () in
    let pid =
      Unix.create_process worker
        [|
          worker;
          "serve";
          "--socket=" ^ socket;
          "--construction=plain";
          "--max-conns=" ^ string_of_int (clients + 64);
          (* one id range per tier *)
          "--max-clients=" ^ string_of_int (3 * clients);
          (* storage-class fence: the regime where the tiers differ —
             strict pays it per op, staleness-k pays ~1/k *)
          "--fence-ns=20000";
        |]
        Unix.stdin w Unix.stderr
    in
    Unix.close w;
    (pid, Unix.in_channel_of_descr r)
  in
  Fun.protect ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()))
  @@ fun () ->
  (match input_line ic with
  | exception End_of_file -> failwith "e20 tier slo: server died before READY"
  | _ready ->
      let tiers =
        [
          ("exactly-once", Protocol.T_exactly_once, 0);
          ("strict", Protocol.T_strict, clients);
          ( Printf.sprintf "stale%d" budget,
            Protocol.T_staleness budget,
            2 * clients );
        ]
      in
      List.iter
        (fun (label, tier, first_client) ->
          let audit =
            (* relaxed tiers waive server dedup — the exactly-once audit
               does not apply to them *)
            if tier = Protocol.T_exactly_once then
              Some (Loadgen.Audit.create ())
            else None
          in
          let cfg =
            {
              (Loadgen.default_config ~socket_path:socket) with
              Loadgen.clients;
              first_client;
              rate_hz = 2.;
              duration_ms = 2_000;
              seed = 42;
              deadline_ms = 1_000;
              connect_timeout_ms = 10_000;
              tier;
            }
          in
          let rep = Loadgen.run ?audit cfg in
          let g name v =
            Onll_obs.Metrics.set
              (Onll_obs.Metrics.gauge summary
                 (Printf.sprintf "e20t.%s.%s" label name))
              v
          in
          g "clients" (float_of_int clients);
          g "confirmed" (float_of_int rep.Loadgen.r_confirmed);
          g "p50_us" (float_of_int rep.Loadgen.r_p50_us);
          g "p99_us" (float_of_int rep.Loadgen.r_p99_us);
          g "p999_us" (float_of_int rep.Loadgen.r_p999_us);
          g "goodput_ops_s" rep.Loadgen.r_goodput;
          g "shed_rate" rep.Loadgen.r_shed_rate;
          Format.printf "e20 tier slo (%s, %d clients): %a@." label clients
            Loadgen.pp_report rep;
          assert (rep.Loadgen.r_confirmed > 0);
          match audit with
          | Some audit when rep.Loadgen.r_unresolved > 0 ->
              let rep2 =
                Loadgen.run ~audit { cfg with Loadgen.duration_ms = 0 }
              in
              Format.printf "e20 tier slo resolve (%s): %a@." label
                Loadgen.pp_report rep2;
              assert (rep2.Loadgen.r_unresolved = 0)
          | _ -> ())
        tiers);
  Unix.kill pid Sys.sigterm;
  let _, st = Unix.waitpid [] pid in
  close_in ic;
  (try Sys.remove socket with Sys_error _ -> ());
  match st with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "e20 tier slo: server did not drain cleanly"

let run () =
  let summary = Onll_obs.Metrics.create () in
  fence_accounting summary;
  let seeds = env_int "ONLL_E20_SEEDS" 200 in
  Harness.assert_campaign ~reg:summary
    (Test_support.Relaxed_chaos.e20 ~seeds
       ~calibration_seeds:(max 10 (seeds / 10)));
  native_throughput summary;
  print_endline "== per-session durability tiers over a real socket ==";
  tier_slo_pass summary ~worker:(Harness.onll_cli ());
  let path =
    Harness.write_snapshot ~experiment:"e20"
      ~meta:
        [
          ("budget", string_of_int budget); ("seeds", string_of_int seeds);
        ]
      summary
  in
  Printf.printf "snapshot: %s\n" path
