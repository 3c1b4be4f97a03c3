(** The E12/E13 chaos campaigns, shared by the bench experiments and the
    [onll chaos] subcommand: many {!Chaos} runs per object — schedules ×
    crash policies × media-fault plans × nested recovery crashes — plus a
    calibration pass that re-runs a slice of the same plans against the
    {e unhardened} recovery and must catch it silently losing data (a
    campaign whose detector never fires proves nothing).

    E13 escalates E12 with durable redundancy: the same fault grid against
    {e mirrored} logs (two replicas, faults confined to primaries, online
    rot healed by periodic scrubs), where the bar is strictly higher — not
    just zero silent loss but zero {e reported} loss and zero torn-tail
    ambiguity, since every primary-only fault has an intact mirror copy to
    restore. A dual-fault arm lets faults into both replicas (losses
    reappear but must be named exactly), and an unmirrored arm re-runs the
    E12 plans as the scale calibration the mirrored rows are compared
    against. *)

module Faults = Onll_faults.Faults

(* The per-seed plan grid. Every knob is a pure function of the seed so a
   row reproduces from (object, seed) alone. *)
let plan_of_seed seed =
  let fault =
    {
      (Faults.Plan.default ~seed) with
      Faults.Plan.bit_flips_per_crash = 1 + (seed mod 3);
      torn_spans_per_crash = (if seed mod 4 = 0 then 1 else 0);
      torn_span_max_bytes = 40;
      media_window = 512;
      (* corrupt media on the first crash and the first nested crash, then
         stop, so crash-recover-crash loops converge *)
      media_fault_crashes = 2;
      flush_fail_prob = (if seed mod 2 = 0 then 0.05 else 0.);
      fence_fail_prob = (if seed mod 2 = 0 then 0.05 else 0.);
      max_consecutive_transients = 2;
    }
  in
  {
    Chaos.default_plan with
    Chaos.seed;
    n_procs = 3;
    ops_per_proc = 4;
    crash_at = 20 + (seed * 17 mod 160);
    policy = Crash_world.policy_of_seed seed;
    stack =
      {
        Onll_stack.plain with
        top = Direct (Bare (if seed mod 5 = 0 then `Wait_free else `Plain));
      };
    fault;
    nested_crashes = seed mod 3;
    hardened = true;
  }

(* The E13 grid: the same per-seed adversity as E12, but against two-way
   mirrored logs with media faults confined to primaries — the scope a
   mirror provably heals — plus, on even seeds, online rot with a periodic
   scrub to heal it before the crash. *)
let mirrored_plan_of_seed seed =
  let p = plan_of_seed seed in
  {
    p with
    Chaos.stack = { p.Chaos.stack with replicas = 2 };
    fault_scope = `Primary_only;
    scrub_every = (if seed mod 2 = 0 then 1 else 0);
    fault =
      {
        p.Chaos.fault with
        (* dense enough that rot lands between two scrub steps, so the
           online heal path (not just recovery) does real work *)
        Faults.Plan.rot_ops_interval = (if seed mod 2 = 0 then 40 else 0);
      };
  }

(* The double-fault arm: mirrored logs, faults allowed into every replica.
   Losses reappear (both copies of a span can die) — the audit requires
   them named exactly, never silent. *)
let dual_fault_plan_of_seed seed =
  { (mirrored_plan_of_seed seed) with Chaos.fault_scope = `All }

(* The same per-seed adversity against another front, keeping the seed's
   replicas. *)
let over front plan_of seed =
  let p = plan_of seed in
  { p with Chaos.stack = { p.Chaos.stack with top = Direct front } }

(* The E14 arms: the sharded construction (4 shards over the lock-free
   trace construction). The crash lands mid-update on whichever shard the
   schedule was driving while the other shards proceed; per-shard recovery
   must compose back into one loss-free history. Over mirrored logs with
   primary-scoped faults it is the no-excuse arm of E13 composed with
   partitioning — zero violations, zero reported loss, zero tail
   ambiguity, on every shard. *)
let sharded_plan_of_seed = over (Sharded (`Plain, 4)) plan_of_seed
let sharded_mirrored_plan_of_seed = over (Sharded (`Plain, 4)) mirrored_plan_of_seed

(* The E16 arms: group commit, where the crash grid sweeps over the
   combining protocol itself — before a window's fence (the whole
   unfenced window must vanish with no acknowledged op in it) or after it
   (every covered update must recover exactly once). Over mirrored logs
   with primary-scoped faults, a primary-only fault on a log must cost
   nothing, because the mirror drained under the same fence. *)
let batched_plan_of_seed = over (Bare `Batched) plan_of_seed
let batched_mirrored_plan_of_seed = over (Bare `Batched) mirrored_plan_of_seed

(* The four objects every E12/E13 arm drives, by name: one {!Chaos.Make}
   instance each, closed over its generators. *)
let objects =
  List.map
    (fun name ->
      let (module G : Gen.S) = List.assoc name Gen.by_name in
      let module C = Chaos.Make (G.Spec) in
      (name, fun plan -> C.run ~plan ~gen_update:G.update ~gen_read:G.read ()))
    [ "counter"; "queue"; "kv"; "stack" ]

(* The counts projection: injected faults, nested crashes and loss
   accounting, then the summed sink counters. *)
let counts r =
  let f = r.Chaos.faults in
  [
    ("media_faults", f.Faults.bit_flips + f.Faults.torn_spans);
    ("transients", f.Faults.flush_transients + f.Faults.fence_transients);
    ("nested_crashes", r.Chaos.nested_fired);
    ("reported_lost", r.Chaos.lost_reported);
    ("tail_ambiguous", r.Chaos.tail_ambiguous);
  ]
  @ r.Chaos.metrics

(** [seeds] runs of object [obj] over [plan_of]'s grid, as one row. *)
let arm ?(plan_of = plan_of_seed) ~obj ?(name = obj) ~seeds () =
  Campaign.arm ~name ~seeds
    ~crashed:(fun r -> r.Chaos.crashed)
    ~violations:(fun r -> r.Chaos.violations)
    ~counts
    (fun seed -> List.assoc obj objects (plan_of seed))

(** Calibration: the same plans, unhardened recovery. A run is caught when
    the audit flags it at all — which it must, for silent truncation under
    media faults, on at least one seed. *)
let calibrate ?(plan_of = plan_of_seed) ~obj ~seeds () =
  Campaign.calibrate ~seeds
    ~caught:(fun r -> r.Chaos.violations <> [])
    (fun seed ->
      List.assoc obj objects { (plan_of seed) with Chaos.hardened = false })

(* The six columns the E14/E16 chaos slices print and gate. *)
let slice_columns =
  [
    ("runs", "runs");
    ("crashed", "crashed");
    ("media", "media_faults");
    ("reported-lost", "reported_lost");
    ("tail-ambig", "tail_ambiguous");
    ("violations", "violations");
  ]

let lost rows =
  Campaign.total "reported_lost" rows + Campaign.total "tail_ambiguous" rows

let run ~seeds_per_object ~calibration_seeds =
  {
    Campaign.rows =
      List.map (fun (obj, _) -> arm ~obj ~seeds:seeds_per_object ()) objects;
    cal_runs = calibration_seeds;
    (* on the kv object: rich payloads make silent truncation bite fast *)
    cal_caught = calibrate ~obj:"kv" ~seeds:calibration_seeds ();
  }

let print_rows
    ?(title =
      "E12 — chaos campaign (media faults × transient flush/fence failures \
       × nested recovery crashes; violations must be 0)") rows =
  Campaign.print ~title ~header:"object"
    ~columns:
      [
        ("runs", "runs");
        ("crashed", "crashed");
        ("media", "media_faults");
        ("transient", "transients");
        ("nested", "nested_crashes");
        ("reported-lost", "reported_lost");
        ("tail-ambig", "tail_ambiguous");
        ("violations", "violations");
      ]
    rows

let print_calibration =
  Campaign.print_calibration ~arm:"unhardened recovery"
    ~verdict:"runs caught losing data"

let print s =
  print_rows s.Campaign.rows;
  print_calibration s

(* Fold a summary into the BENCH_e12.json snapshot: fault, retry, salvage
   and recovery counters are first-class metrics. *)
let to_metrics s = Campaign.summary_metrics ~prefix:"chaos" s

(* {2 E13 — mirrored logs, scrubbing, repair-aware recovery} *)

type e13_summary = {
  mirrored : Campaign.row list;
      (** 2-way mirrored, faults on primaries only: zero violations AND
          zero reported-lost AND zero tail-ambiguous required *)
  dual : Campaign.row list;
      (** mirrored, faults on every replica: zero violations required;
          double-fault losses reappear but must be named *)
  unmirrored : Campaign.row list;
      (** the E12 plans re-run hardened and unmirrored — the calibration
          scale mirrored rows are compared against (must show losses) *)
}

let e13_violations s = Campaign.total "violations" (s.mirrored @ s.dual)
let e13_mirrored_lost s = lost s.mirrored
let e13_unmirrored_lost s = lost s.unmirrored

let run_e13 ~seeds_per_object ~dual_seeds ~unmirrored_seeds =
  {
    mirrored =
      List.map
        (fun (obj, _) ->
          arm ~plan_of:mirrored_plan_of_seed ~obj ~seeds:seeds_per_object ())
        objects;
    dual =
      [
        arm ~plan_of:dual_fault_plan_of_seed ~obj:"kv" ~name:"kv/dual"
          ~seeds:dual_seeds ();
      ];
    unmirrored =
      [ arm ~obj:"kv" ~name:"kv/unmirrored" ~seeds:unmirrored_seeds () ];
  }

let print_e13 s =
  Campaign.print
    ~title:
      "E13 — mirrored chaos campaign (2 replicas; primary-only faults must \
       cost NOTHING: reported-lost, tail-ambig and violations all 0; the \
       dual arm may lose but must say so; the unmirrored arm shows the \
       E12-scale losses mirroring removed)"
    ~header:"object"
    ~columns:
      [
        ("runs", "runs");
        ("crashed", "crashed");
        ("media", "media_faults");
        ("scrubs", "scrubs");
        ("repairs", "repairs");
        ("scrub-fix", "scrub.repaired");
        ("reported-lost", "reported_lost");
        ("tail-ambig", "tail_ambiguous");
        ("violations", "violations");
      ]
    (s.mirrored @ s.dual @ s.unmirrored);
  Printf.printf
    "mirrored losses: %d (must be 0) | unmirrored calibration losses: %d %s\n"
    (e13_mirrored_lost s) (e13_unmirrored_lost s)
    (if e13_unmirrored_lost s > 0 then "(faults were real)"
     else "(NO LOSSES UNMIRRORED — the grid stopped biting; tighten it)")

let e13_to_metrics s =
  let reg = Onll_obs.Metrics.create () in
  List.iter
    (fun (group, rows) ->
      List.iter
        (fun r ->
          ignore
            (Campaign.to_metrics ~reg
               ~prefix:(Printf.sprintf "e13.%s.%s" group r.Campaign.name)
               r))
        rows)
    [
      ("mirrored", s.mirrored); ("dual", s.dual); ("unmirrored", s.unmirrored);
    ];
  reg
