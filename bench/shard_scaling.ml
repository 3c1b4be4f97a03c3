(** E14 — shard scaling: throughput and invariants of the partitioned
    construction ({!Onll_sharded}).

    Three parts, two of them exactly reproducible and gated by [onll gate]:

    - {b fence accounting (sim, deterministic)}: the ["onll-sharded"]
      registry entry run under a seeded random schedule must show {e
      exactly} one persistent fence per update and zero per read — an
      update runs on exactly one shard, so Theorem 5.1's bound survives
      partitioning verbatim; global reads fan out fence-free. Routing
      balance across the 4 shards is recorded alongside.
    - {b sharded chaos slices (sim, deterministic)}: the E12 fault grid
      against 4 shards (crash lands mid-update on one shard while the
      others proceed; zero violations required), and the E13 no-excuse arm
      composed with sharding (mirrored logs, primary-scoped faults: zero
      violations, zero reported loss, zero tail ambiguity).
    - {b native throughput grid}: disjoint-key kv updates, shards ×
      domains at a 500 ns fence plus a fence-latency sweep, with periodic
      {!Onll_sharded.Make.compact} (checkpoint + trace prune) every 256
      ops. Sharding buys {e locality} as well as contention: between
      compactions each shard's trace holds [1/S] of the history, so a
      view-less compute replays [1/S] of the delta — which is why the
      speedup shows up even on a single core. Asserted: 4 shards beat 1
      shard by at least 1.5x at the 500 ns fence point with the most
      domains measured. *)

open Onll_machine
module Kv = Onll_specs.Kv

let shard_counts = [ 1; 2; 4; 8 ]
let fence_ns_default = 500
let compact_every = 256
let available_domains = max 2 (Domain.recommended_domain_count () - 1)

(* {2 Part 1 — fence accounting (deterministic, gated)} *)

let n_procs = 4
let acct_shards = 4

let fence_accounting summary =
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let rng = Onll_util.Splitmix.create 7 in
  let module R = Onll_baselines.Registry.Make (Kv) in
  let h =
    match
      R.build ~sink
        ~options:
          {
            Onll_baselines.Registry.default_options with
            log_capacity = 1 lsl 18;
          }
        ~shards:acct_shards ~max_processes:n_procs
        ~gen_update:(fun () -> Test_support.Gen.Kv.update rng)
        ~gen_read:(fun () -> Test_support.Gen.Kv.read rng)
        "onll-sharded"
    with
    | Some h -> h
    | None -> assert false
  in
  let open Onll_baselines.Registry in
  let outcome =
    Sim.run h.sim
      (Onll_sched.Sched.Strategy.random ~seed:42)
      (Array.init n_procs (fun _ _ ->
           for k = 1 to 25 do
             if k mod 5 = 0 then h.read () else h.update ()
           done))
  in
  assert (outcome = Onll_sched.Sched.World.Completed);
  let c name = Onll_obs.Metrics.counter_value registry name in
  (* Theorem 5.1 under partitioning: exactly one pf per update, zero per
     read — including the fanned-out global Size reads. *)
  assert (c "fences.update" = c "ops.update");
  assert (c "ops.update" > 0);
  assert (c "fences.read" = 0);
  assert (c "ops.read" > 0);
  assert (c "routes" > 0);
  let add name v =
    Onll_obs.Metrics.add (Onll_obs.Metrics.counter summary name) v
  in
  add "e14.acct.ops.update" (c "ops.update");
  add "e14.acct.fences.update" (c "fences.update");
  add "e14.acct.ops.read" (c "ops.read");
  add "e14.acct.fences.read" (c "fences.read");
  add "e14.acct.routes" (c "routes");
  add "e14.acct.routes.global" (c "routes.global");
  for s = 0 to acct_shards - 1 do
    add
      (Printf.sprintf "e14.acct.shard.%d.ops" s)
      (c (Printf.sprintf "shard.%d.ops" s))
  done;
  Printf.printf
    "fence accounting (sim, 4 shards, %d procs): %d updates = %d persistent \
     fences; %d reads = 0 fences; %d routed (%d global fan-outs)\n"
    n_procs (c "ops.update") (c "fences.update") (c "ops.read") (c "routes")
    (c "routes.global")

(* {2 Part 2 — sharded chaos slices (deterministic, gated)} *)

let chaos = Test_support.Chaos_harness.e14 ~seeds:40

(* {2 Part 3 — native throughput grid} *)

(* Disjoint-key kv updates: domain [d] cycles over 64 keys of its own,
   with a compact (checkpoint + per-shard trace prune) every
   [compact_every] ops. *)
let run_native ~shards ~domains ~fence_ns ~total_ops =
  let native = Native.create ~max_processes:domains ~fence_ns () in
  let module M = (val Native.machine native) in
  let module C = Onll_sharded.Make (M) (Kv) in
  let obj =
    C.make ~shards
      { Onll_core.Onll.Config.default with log_capacity = 1 lsl 20 }
  in
  let per = total_ops / domains in
  (* built before the clock starts, so the timed loop allocates only what
     the object does *)
  let puts =
    Array.init domains (fun d ->
        Array.init 64 (fun k -> Kv.Put (Printf.sprintf "d%d.k%d" d k, "v")))
  in
  let t0 = Unix.gettimeofday () in
  ignore
    (Native.run_workers native
       (List.init domains (fun d ->
            fun _ ->
             for j = 1 to per do
               ignore (C.update obj puts.(d).(j land 63));
               if j mod compact_every = 0 then ignore (C.compact obj : int)
             done)));
  Harness.ops_per_sec (per * domains) (Unix.gettimeofday () -. t0)

let throughput_grid summary =
  let total_ops = 20_000 in
  let domain_counts =
    List.filter (fun d -> d <= available_domains) [ 1; 2; 4; 8 ]
  in
  let max_domains = List.fold_left max 1 domain_counts in
  let rate ~shards ~domains ~fence_ns =
    Harness.best_of 2 (fun () ->
        run_native ~shards ~domains ~fence_ns ~total_ops)
  in
  (* headline grid: shards x domains at the default fence *)
  let curves =
    List.map
      (fun shards ->
        ( Printf.sprintf "s%d" shards,
          List.map
            (fun d ->
              ( float_of_int d,
                rate ~shards ~domains:d ~fence_ns:fence_ns_default /. 1e6 ))
            domain_counts ))
      shard_counts
  in
  Onll_util.Table.series
    ~title:
      (Printf.sprintf
         "E14a — disjoint-key kv throughput vs domains, by shard count \
          (Mops/s, fence = %dns, compact every %d ops)"
         fence_ns_default compact_every)
    ~x_label:"domains" curves;
  (* fence-latency sweep at 1 vs 4 shards *)
  let latencies = [ 0; 500; 2000 ] in
  let sweep_domains = min 2 available_domains in
  let sweep =
    List.map
      (fun shards ->
        ( Printf.sprintf "s%d" shards,
          List.map
            (fun ns ->
              ( float_of_int ns,
                rate ~shards ~domains:sweep_domains ~fence_ns:ns /. 1e6 ))
            latencies ))
      [ 1; 4 ]
  in
  Onll_util.Table.series
    ~title:
      (Printf.sprintf
         "E14b — disjoint-key kv throughput vs fence latency (Mops/s, %d \
          domains)"
         sweep_domains)
    ~x_label:"fence_ns" sweep;
  (* Aggregate Mops and per-domain goodput, both as gauges: the d2-vs-d1
     collapse (and its E16 fix) hides inside the aggregate — goodput is
     what each submitting domain actually gets. *)
  List.iter
    (fun (name, points) ->
      List.iter
        (fun (x, mops) ->
          let d = int_of_float x in
          Onll_obs.Metrics.set
            (Onll_obs.Metrics.gauge summary
               (Printf.sprintf "mops.kv.%s.d%d" name d))
            mops;
          Onll_obs.Metrics.set
            (Onll_obs.Metrics.gauge summary
               (Printf.sprintf "goodput.kv.%s.d%d" name d))
            (mops /. float_of_int d))
        points)
    curves;
  List.iter
    (fun (name, points) ->
      List.iter
        (fun (x, mops) ->
          Onll_obs.Metrics.set
            (Onll_obs.Metrics.gauge summary
               (Printf.sprintf "mops.kv.%s.ns%d" name (int_of_float x)))
            mops)
        points)
    sweep;
  (* The acceptance point: 4 shards vs 1 at the default fence, most
     domains. The locality argument makes this core-count independent —
     each update replays 1/4 of the inter-compaction history. *)
  let at curves name d =
    List.assoc (float_of_int d) (List.assoc name curves)
  in
  let s1 = at curves "s1" max_domains and s4 = at curves "s4" max_domains in
  let speedup = s4 /. s1 in
  Printf.printf
    "4 shards vs 1 at %d domains, %dns fence: %.2fx (threshold 1.5x)\n"
    max_domains fence_ns_default speedup;
  assert (speedup >= 1.5);
  print_endline
    "(asserted: sharding beats the single instance by >= 1.5x on \
     disjoint-key kv)";
  Onll_obs.Metrics.set
    (Onll_obs.Metrics.gauge summary "speedup.s4_over_s1")
    speedup

let run () =
  let summary = Onll_obs.Metrics.create () in
  fence_accounting summary;
  Harness.assert_campaign ~reg:summary chaos;
  throughput_grid summary;
  let path =
    Harness.write_snapshot ~experiment:"e14"
      ~meta:
        [
          ("fence_ns", string_of_int fence_ns_default);
          ("compact_every", string_of_int compact_every);
          ("max_domains", string_of_int available_domains);
        ]
      summary
  in
  Printf.printf "snapshot: %s\n" path
