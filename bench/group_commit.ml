(** E16 — group commit: the construction under the combining persist
    policy ({!Onll_core.Onll.Make_combining}).

    Thm 5.1/6.3 bound the {e per-process} fence cost of detectable
    objects at 1 pf/update — but concurrent updates can share one fence.
    Under the combining policy an update whose trace node is not the
    newest waits a bounded number of its own steps for the newer node's
    persist, whose Listing 3 window holds it, to mark it available; only
    an update whose bound runs out pays a fence of its own. This
    experiment measures what that buys and pins what it cannot beat.
    Three deterministic, gated parts plus a native grid:

    - {b amortisation accounting (sim, deterministic)}: the
      ["onll-batched"] registry entry under a round-robin schedule with 6
      concurrent submitters — nodes are inserted before the newest one
      persists, so windows fill. Read from the core's own attribution
      ([fences.update] over [ops.update]) and its [fuzzy.window]
      histogram (one observation per persist: the updates its fence
      covered). Asserted: amortised fences per update strictly below 1/2
      (the acceptance bar at >= 4 submitters), and reads still cost zero
      fences.
    - {b the Thm 6.3 degeneration (sim, deterministic)}: the adversarial
      schedule is simply {e solo} — a single process always holds the
      newest node, every window holds one update, and the cost is pinned
      at {e exactly} 1 pf/update. Combining amortises the bound; it
      never beats it.
    - {b group-commit chaos slices (sim, deterministic)}: the E12 fault
      grid against the combining object, where the crash lands between a
      window's insertions and its fence (the whole unfenced window must
      vanish with nothing acknowledged in it) or after it (every covered
      update recovers exactly once). Zero violations required; the E13
      no-excuse arm composed with group commit (mirrored logs,
      primary-scoped faults) must additionally lose nothing at all.
    - {b native throughput grid}: disjoint-key kv updates, domains x
      fence latency (0/500/2000 ns plus a 50 us
      fsync-class point), aggregate Mops/s and per-domain goodput.
      Asserted: a second domain does not collapse throughput at the
      500 ns point (d2 >= 0.7x d1), and adds >= 1.5x at the fsync-class
      point. On the native machine a fence is a busy-wait of the calling
      domain, so the two domains' fences overlap: the second domain's
      throughput comes from per-process logs, not from sharing. An update
      is covered only when another one was inserted between its insert
      and its check, so natively most updates pay their own fence; the
      fences per update at d2 are printed and recorded for both points. *)

open Onll_machine
module Kv = Onll_specs.Kv

let fence_ns_grid = [ 0; 500; 2000; 50_000 ]
let fence_ns_default = 500

(* Group commit earns its keep where persistence latency dominates the
   per-operation CPU work — the regime the technique was invented for
   (databases amortising fsync). 50 us models fsync-class persistence
   (an SSD-class sync); the sub-us points model CPU-adjacent NVM, where
   on few cores the second domain can at best break even. *)
let fence_ns_fsync = 50_000
let checkpoint_every = 256
let available_domains = max 2 (Domain.recommended_domain_count () - 1)

(* {2 Part 1 — amortisation accounting (deterministic, gated)} *)

let amort_procs = 6
let amort_ops = 25 (* per process *)

let build_batched ~sink ~max_processes ~rng =
  let module R = Onll_baselines.Registry.Make (Kv) in
  match
    R.build ~sink
      ~options:
        {
          Onll_baselines.Registry.default_options with
          log_capacity = 1 lsl 18;
        }
      ~max_processes
      ~gen_update:(fun () -> Test_support.Gen.Kv.update rng)
      ~gen_read:(fun () -> Test_support.Gen.Kv.read rng)
      "onll-batched"
  with
  | Some h -> h
  | None -> assert false

(* The core's fuzzy-window histogram: (persists, updates they covered,
   largest window). *)
let windows registry =
  match Onll_obs.Metrics.find registry "fuzzy.window" with
  | Some (Onll_obs.Metrics.Summary s) ->
      Onll_obs.Metrics.(s.hs_count, s.hs_sum, s.hs_max)
  | _ -> (0, 0, 0)

let amortization summary =
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let rng = Onll_util.Splitmix.create 7 in
  let h = build_batched ~sink ~max_processes:amort_procs ~rng in
  let open Onll_baselines.Registry in
  let outcome =
    Sim.run h.sim Onll_sched.Sched.Strategy.round_robin
      (Array.init amort_procs (fun _ _ ->
           for k = 1 to amort_ops do
             if k mod 5 = 0 then h.read () else h.update ()
           done))
  in
  assert (outcome = Onll_sched.Sched.World.Completed);
  let c name = Onll_obs.Metrics.counter_value registry name in
  (* The acceptance bar: strictly below 1/2 pf/update with >= 4
     concurrent submitters — the fence is really shared. *)
  assert (c "ops.update" > 0);
  assert (2 * c "fences.update" < c "ops.update");
  assert (c "fences.read" = 0 && c "ops.read" > 0);
  (* Every update fence is one persist, and some window held several
     updates. *)
  let persists, covered, widest = windows registry in
  assert (persists = c "fences.update" && widest >= 2);
  let add name v =
    Onll_obs.Metrics.add (Onll_obs.Metrics.counter summary name) v
  in
  add "e16.amort.ops.update" (c "ops.update");
  add "e16.amort.fences.update" (c "fences.update");
  add "e16.amort.ops.read" (c "ops.read");
  add "e16.amort.fences.read" (c "fences.read");
  add "e16.amort.windows" persists;
  add "e16.amort.window_ops" covered;
  add "e16.amort.window_max" widest;
  Printf.printf
    "amortisation (sim, %d submitters, round-robin): %d updates over %d \
     fences = %.2f pf/update (< 0.5 asserted); windows hold %.2f updates \
     (max %d); %d reads = 0 fences\n"
    amort_procs (c "ops.update") (c "fences.update")
    (float_of_int (c "fences.update") /. float_of_int (c "ops.update"))
    (float_of_int covered /. float_of_int persists)
    widest (c "ops.read")

(* {2 Part 2 — the Thm 6.3 degeneration (deterministic, gated)} *)

let adversary_ops = 30

let adversarial summary =
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let rng = Onll_util.Splitmix.create 11 in
  let h = build_batched ~sink ~max_processes:1 ~rng in
  let open Onll_baselines.Registry in
  let outcome =
    Sim.run h.sim Onll_sched.Sched.Strategy.round_robin
      [|
        (fun _ ->
          for _ = 1 to adversary_ops do
            h.update ()
          done);
      |]
  in
  assert (outcome = Onll_sched.Sched.World.Completed);
  let c name = Onll_obs.Metrics.counter_value registry name in
  (* Pinned at exactly 1 pf/update: solo, every window holds one update
     — the adversary that never offers concurrency recovers Thm 6.3's
     bound verbatim. *)
  assert (c "ops.update" = adversary_ops);
  assert (c "fences.update" = adversary_ops);
  let persists, covered, widest = windows registry in
  assert (persists = adversary_ops && covered = adversary_ops && widest = 1);
  let add name v =
    Onll_obs.Metrics.add (Onll_obs.Metrics.counter summary name) v
  in
  add "e16.adversary.ops.update" (c "ops.update");
  add "e16.adversary.fences.update" (c "fences.update");
  add "e16.adversary.windows" persists;
  Printf.printf
    "adversarial degeneration (sim, solo): %d updates = %d fences — \
     exactly 1 pf/update, asserted\n"
    (c "ops.update") (c "fences.update")

(* {2 Part 3 — group-commit chaos slices (deterministic, gated)} *)

let chaos = Test_support.Chaos_harness.e16 ~seeds:40

(* {2 Part 4 — native throughput grid} *)

(* Kv counting its applies, each domain in a cache line of its own, so
   the count adds no shared write to the timed runs. *)
module Counted_kv = struct
  include Kv

  let stride = 16
  let counts = Array.make (64 * stride) 0

  let apply s op =
    let i = stride * ((Domain.self () :> int) land 63) in
    counts.(i) <- counts.(i) + 1;
    Kv.apply s op

  let total () = Array.fold_left ( + ) 0 counts
  let reset () = Array.fill counts 0 (Array.length counts) 0
end

(* Disjoint-key kv updates, exactly the E14 workload shape (64 private
   keys per domain, a checkpoint every [checkpoint_every] ops) so the
   group-commit grid reads against the sharded one. Returns ops/s, the
   machine's fences per update (checkpoint fences included: 2 per
   [checkpoint_every] ops) and the specification's applies per update
   (one: the first fold through a trace node publishes its state, §8). *)
let run_native ~domains ~fence_ns ~total_ops =
  let native = Native.create ~max_processes:domains ~fence_ns () in
  let module M = (val Native.machine native) in
  let module C = Onll_core.Onll.Make_combining (M) (Counted_kv) in
  Counted_kv.reset ();
  let obj =
    C.make
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
               if j mod checkpoint_every = 0 then ignore (C.checkpoint obj)
             done)));
  let rate = Harness.ops_per_sec (per * domains) (Unix.gettimeofday () -. t0) in
  let updates = float_of_int (per * domains) in
  ( rate,
    float_of_int (Native.persistent_fences native) /. updates,
    float_of_int (Counted_kv.total ()) /. updates )

let throughput_grid summary =
  let total_ops = 20_000 in
  let domain_counts =
    List.filter (fun d -> d <= available_domains) [ 1; 2; 4; 8 ]
  in
  let rate ~domains ~fence_ns =
    Harness.best_of 2 (fun () ->
        let rate, _, _ = run_native ~domains ~fence_ns ~total_ops in
        rate)
  in
  let curves =
    List.map
      (fun ns ->
        ( Printf.sprintf "ns%d" ns,
          List.map
            (fun d -> (float_of_int d, rate ~domains:d ~fence_ns:ns /. 1e6))
            domain_counts ))
      fence_ns_grid
  in
  Onll_util.Table.series
    ~title:
      (Printf.sprintf
         "E16 — group-commit disjoint-key kv throughput vs domains, by \
          fence latency (Mops/s aggregate, checkpoint every %d ops)"
         checkpoint_every)
    ~x_label:"domains" curves;
  (* Aggregate Mops and per-domain goodput, both as gauges: goodput is
     what each submitter actually gets, the number the E14 d2-vs-d1
     collapse hid inside the aggregate. *)
  List.iter
    (fun (name, points) ->
      List.iter
        (fun (x, mops) ->
          let d = int_of_float x in
          Onll_obs.Metrics.set
            (Onll_obs.Metrics.gauge summary
               (Printf.sprintf "mops.kv.batched.%s.d%d" name d))
            mops;
          Onll_obs.Metrics.set
            (Onll_obs.Metrics.gauge summary
               (Printf.sprintf "goodput.kv.batched.%s.d%d" name d))
            (mops /. float_of_int d))
        points)
    curves;
  (* The acceptance points: a second domain must not destroy throughput
     on CPU-adjacent NVM, and must add real speedup where the fence
     dominates.

     Each ratio comes from back-to-back d1/d2 pairs (median of three):
     the absolute rates on a shared host drift with CPU contention, but
     a pair measured in the same window shares the drift, so the ratio
     is stable where individual grid cells are not. The d2 fences and
     applies per update are the medians over the same three d2 runs. *)
  let ratio ns =
    let pair () =
      let d1, _, _ = run_native ~domains:1 ~fence_ns:ns ~total_ops in
      let d2, pf, applies = run_native ~domains:2 ~fence_ns:ns ~total_ops in
      (d2 /. d1, pf, applies)
    in
    let pairs = [ pair (); pair (); pair () ] in
    let median f = List.nth (List.sort compare (List.map f pairs)) 1 in
    ( median (fun (r, _, _) -> r),
      median (fun (_, pf, _) -> pf),
      median (fun (_, _, a) -> a) )
  in
  let held, pf_held, applies_held = ratio fence_ns_default in
  Printf.printf
    "group commit d2 vs d1 at %dns fence: %.2fx (>= 0.7x asserted); d2 \
     pays %.3f pf/update, %.3f applies/update\n"
    fence_ns_default held pf_held applies_held;
  let speedup, pf_fsync, applies_fsync = ratio fence_ns_fsync in
  Printf.printf
    "group commit d2 vs d1 at the fsync-class point (%dns): %.2fx \
     (threshold 1.5x); d2 pays %.3f pf/update, %.3f applies/update\n"
    fence_ns_fsync speedup pf_fsync applies_fsync;
  let gauge name v =
    Onll_obs.Metrics.set (Onll_obs.Metrics.gauge summary name) v
  in
  gauge "speedup.batched.d2_over_d1" speedup;
  gauge "speedup.batched.d2_over_d1.ns500" held;
  gauge "pf_update.batched.d2.ns500" pf_held;
  gauge "pf_update.batched.d2.ns50000" pf_fsync;
  gauge "applies_update.batched.d2.ns500" applies_held;
  gauge "applies_update.batched.d2.ns50000" applies_fsync;
  assert (held >= 0.7);
  assert (speedup >= 1.5);
  print_endline
    "(asserted: a second domain adds >= 1.5x throughput where the fence \
     dominates, and no longer destroys throughput anywhere on the grid)"

let run () =
  let summary = Onll_obs.Metrics.create () in
  amortization summary;
  adversarial summary;
  Harness.assert_campaign ~reg:summary chaos;
  throughput_grid summary;
  let path =
    Harness.write_snapshot ~experiment:"e16"
      ~meta:
        [
          ("fence_ns", string_of_int fence_ns_default);
          ("checkpoint_every", string_of_int checkpoint_every);
          ("max_domains", string_of_int available_domains);
        ]
      summary
  in
  Printf.printf "snapshot: %s\n" path
