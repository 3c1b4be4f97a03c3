(** The E12/E13 chaos campaigns and the E14/E16 chaos slices, each one
    {!Campaign.t} that the bench, the gate, [onll chaos] and the tests
    read: many {!Chaos} runs per object — schedules ×
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

(* {2 Campaigns} *)

let outcome r =
  {
    Campaign.crashed = r.Chaos.crashed;
    counts = counts r;
    violations = r.Chaos.violations;
  }

let loss = [ "reported_lost"; "tail_ambiguous" ]

let lossless =
  Campaign.zero
    "primary-only faults against a mirror cost nothing: zero reported-lost \
     and zero tail-ambiguous on every mirrored arm"
    loss

(* [seeds] runs of object [obj] over [plan_of]'s grid, hardened. Every
   such arm must be clean; on mirrored logs with faults confined to
   primaries it must also lose nothing, since every fault has an intact
   mirror copy to restore. *)
let arm ?key ?records ~obj ~name ~seeds plan_of =
  let p = plan_of 1 in
  Campaign.arm ?key ?records ~name ~seeds
    ~requires:
      (Campaign.no_violations
      ::
      (if p.Chaos.stack.Onll_stack.replicas > 1 && p.fault_scope = `Primary_only
       then [ lossless ]
       else []))
    (fun seed -> outcome (List.assoc obj objects (plan_of seed)))

(* The same plans against the unhardened recovery: a run is caught when
   the audit flags it at all, which it must, for silent truncation under
   media faults, on at least one seed. *)
let calibration ~obj ~seeds plan_of =
  Campaign.calibration ~label:"unhardened recovery"
    ~verdict:"runs caught losing data" ~seeds
    ~caught:(fun o -> o.Campaign.violations <> [])
    (fun seed ->
      outcome
        (List.assoc obj objects { (plan_of seed) with Chaos.hardened = false }))

let columns =
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

(** E12: every object over the plain grid, and the unhardened calibration
    on kv, whose rich payloads make silent truncation bite fast. *)
let e12 ~seeds ~calibration_seeds =
  Campaign.make
    ~title:
      "E12 — chaos campaign (media faults × transient flush/fence failures \
       × nested recovery crashes; violations must be 0)"
    ~header:"object" ~columns ~prefix:"chaos"
    (List.map (fun (obj, _) -> arm ~obj ~name:obj ~seeds plan_of_seed) objects
    @ [ calibration ~obj:"kv" ~seeds:calibration_seeds plan_of_seed ])

(* How many of the E12 plans the unmirrored arm of E13 runs: enough to
   lose something, where fewer can all come through whole. *)
let scale_seeds = 40

(** E13: the same adversity against mirrored logs. Three arms: mirrored
    with faults on primaries only, on every object (lossless); dual, with
    faults in every replica (losses reappear, named); and {!scale_seeds}
    of the E12 plans re-run unmirrored on kv, the scale the mirrored rows
    are compared against. Those plans must lose, or the grid stopped
    biting and the mirrored zeros prove nothing. *)
let e13 ~seeds_per_object ~dual_seeds =
  let scale =
    Campaign.at_least 1 "the unmirrored arm loses: E12-scale faults were real"
      loss
  in
  let unmirrored =
    arm ~key:"unmirrored.kv/unmirrored" ~obj:"kv" ~name:"kv/unmirrored"
      ~seeds:scale_seeds plan_of_seed
  in
  let footer s =
    let lost = Campaign.measured s scale in
    Printf.sprintf
      "mirrored losses: %d (must be 0) | unmirrored calibration losses: %d %s"
      (Campaign.measured s lossless)
      lost
      (if lost > 0 then "(faults were real)"
       else "(NO LOSSES UNMIRRORED — the grid stopped biting; tighten it)")
  in
  Campaign.make
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
    ~prefix:"e13" ~footer
    (List.map
       (fun (obj, _) ->
         arm ~key:("mirrored." ^ obj) ~obj ~name:obj ~seeds:seeds_per_object
           mirrored_plan_of_seed)
       objects
    @ [
        arm ~key:"dual.kv/dual" ~obj:"kv" ~name:"kv/dual" ~seeds:dual_seeds
          dual_fault_plan_of_seed;
        { unmirrored with requires = unmirrored.requires @ [ scale ] };
      ])

(* The six columns the E14/E16 chaos slices print and record. *)
let slice_columns =
  [
    ("runs", "runs");
    ("crashed", "crashed");
    ("media", "media_faults");
    ("reported-lost", "reported_lost");
    ("tail-ambig", "tail_ambiguous");
    ("violations", "violations");
  ]

(* A pair of kv slices over one construction, plain and mirrored, each
   recorded as [<prefix>.<key>.*]. *)
let slices ~title ~prefix ~seeds arms =
  Campaign.make ~title ~header:"arm" ~columns:slice_columns ~prefix
    (List.map
       (fun (name, key, plan_of) ->
         arm ~key ~records:(List.map snd slice_columns) ~obj:"kv" ~name ~seeds
           plan_of)
       arms)

(** E14's chaos slices: the sharded construction, plain and mirrored. *)
let e14 ~seeds =
  slices ~prefix:"e14.chaos" ~seeds
    ~title:
      "E14 chaos slices — crash mid-update on one shard while others \
       proceed (violations must be 0; the mirrored arm additionally loses \
       nothing)"
    [
      ("kv/sharded", "sharded", sharded_plan_of_seed);
      ("kv/sharded+mirrored", "sharded_mirrored", sharded_mirrored_plan_of_seed);
    ]

(** E16's chaos slices: group commit, plain and mirrored. A duplicate ack
    is a violation of the chaos audit. *)
let e16 ~seeds =
  slices ~prefix:"e16.chaos" ~seeds
    ~title:
      "E16 chaos slices — crash mid-window, before or after its fence \
       (violations must be 0; the mirrored arm additionally loses \
       nothing)"
    [
      ("kv/batched", "batched", batched_plan_of_seed);
      ("kv/batched+mirrored", "batched_mirrored", batched_mirrored_plan_of_seed);
    ]

(** [onll chaos]'s grid on one object: the E12 plans, or E13's mirrored
    ones, over the stack the flags pick, with the unhardened calibration
    over the same plans. *)
let one ~obj ~mirrored ~sharded ~batched ~seeds =
  let base = if mirrored then mirrored_plan_of_seed else plan_of_seed in
  let plan_of =
    match (sharded, batched) with
    | false, false -> base
    | false, true -> over (Bare `Batched) base
    | true, false -> over (Sharded (`Plain, 4)) base
    | true, true -> over (Sharded (`Batched, 4)) base
  in
  let name =
    obj
    ^ (if sharded then "/sharded" else "")
    ^ (if batched then "/batched" else "")
    ^ if mirrored then "+mirrored" else ""
  in
  Campaign.make
    ~title:
      (Printf.sprintf "chaos %s (violations must be 0%s)" name
         (if mirrored then "; mirrored: no loss either" else ""))
    ~header:"object" ~columns ~prefix:"chaos"
    [ arm ~obj ~name ~seeds plan_of; calibration ~obj ~seeds plan_of ]
