(* The fault-injection layer (Onll_faults) and the hardened recovery it
   exists to exercise: deterministic media corruption, capped transient
   failures, the armed nested-crash fuse — and the PR's central acceptance
   property, recovery idempotence under a crash at EVERY recovery step. *)

open Onll_machine
module Faults = Onll_faults.Faults
module Memory = Onll_nvm.Memory
module Cs = Onll_specs.Counter

let check = Alcotest.check

(* {1 Determinism} *)

let test_media_corruption_deterministic () =
  (* Same seed -> byte-identical corrupted image and identical counters;
     different seed -> a different image. *)
  let durable seed =
    let sim = Sim.create ~max_processes:1 () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make (M) (Cs) in
    let obj = C.make { Onll_core.Onll.Config.default with log_capacity = 4096 } in
    for _ = 1 to 5 do ignore (C.update obj Cs.Increment) done;
    let mem = Sim.memory sim in
    let plan =
      { (Faults.Plan.default ~seed) with
        Faults.Plan.flush_fail_prob = 0.; fence_fail_prob = 0. }
    in
    let h = Faults.install mem plan in
    Memory.crash mem ~policy:Onll_nvm.Crash_policy.Drop_all;
    Faults.remove h;
    let snap =
      (* max_processes = 1: the object owns exactly one log region *)
      match Memory.region_names mem with
      | [ name ] ->
          Memory.Region.durable_snapshot
            (Option.get (Memory.find_region mem name))
      | names ->
          Alcotest.failf "expected one region, got %d" (List.length names)
    in
    (snap, Faults.counters h)
  in
  let s1, c1 = durable 42 in
  let s2, c2 = durable 42 in
  let s3, _ = durable 43 in
  check Alcotest.bool "same seed, same corrupted image" true (s1 = s2);
  check Alcotest.bool "same seed, same counters" true (c1 = c2);
  check Alcotest.bool "different seed, different image" true (s1 <> s3);
  check Alcotest.int "plan's bit flips landed" 2 c1.Faults.bit_flips;
  check Alcotest.int "plan's torn span landed" 1 c1.Faults.torn_spans

let test_crash_policy_random_deterministic () =
  (* The Crash_policy.Random seed contract (crash_policy.mli): the
     surviving set is a pure function of the seed and the crash-time
     memory state — including PENDING (flushed-but-unfenced) write-backs,
     not just dirty lines. *)
  let durable seed =
    let m = Memory.create ~line_size:8 ~max_processes:2 () in
    let r = Memory.region m ~name:"r" ~size:512 in
    for i = 0 to 7 do
      Memory.Region.store r ~proc:0 ~off:(i * 8) "DDDDDDDD"
    done;
    (* half flushed (pending at the crash), half left dirty *)
    Memory.Region.flush r ~proc:0 ~off:0 ~len:32;
    Memory.Region.store r ~proc:1 ~off:256 "dddddddd";
    Memory.crash m ~policy:(Onll_nvm.Crash_policy.Random seed);
    Memory.Region.durable_snapshot r
  in
  check Alcotest.string "same seed, same durable image" (durable 9) (durable 9);
  check Alcotest.bool "different seeds differ" true (durable 1 <> durable 2)

(* {1 Transient failures} *)

let test_transient_failures_capped_and_retried () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  let plan =
    { Faults.Plan.none with
      Faults.Plan.fence_fail_prob = 1.0; max_consecutive_transients = 2 }
  in
  let h = Faults.install (Sim.memory sim) plan in
  (* Every fence fails with probability 1 — but never more than twice in a
     row, so the bounded retry inside the log's persist must succeed. *)
  P.append log "payload";
  Faults.remove h;
  check Alcotest.(list string) "append survived the transients" [ "payload" ]
    (P.entries log);
  let c = Faults.counters h in
  check Alcotest.int "exactly the cap worth of fence failures" 2
    c.Faults.fence_transients;
  (* The flush hook (probability 0) must not have reset the cap. *)
  check Alcotest.int "no flush failures" 0 c.Faults.flush_transients

(* {1 The nested-crash fuse} *)

let test_armed_fuse_fires_at_exact_op () =
  let m = Memory.create ~max_processes:1 () in
  let r = Memory.region m ~name:"r" ~size:256 in
  let h = Faults.install m Faults.Plan.none in
  Memory.Region.store r ~proc:0 ~off:0 "x";
  check Alcotest.bool "not armed" false (Faults.armed h);
  Faults.arm_recovery_crash h ~at_op:2;
  check Alcotest.bool "armed" true (Faults.armed h);
  Memory.Region.store r ~proc:0 ~off:1 "y" (* fuse: 2 -> 1 *);
  Memory.Region.store r ~proc:0 ~off:2 "z" (* fuse: 1 -> 0 *);
  check Alcotest.bool "third op crashes" true
    (match Memory.Region.store r ~proc:0 ~off:3 "w" with
    | exception Memory.Injected_crash -> true
    | () -> false);
  (* the fuse is spent: the next op proceeds *)
  check Alcotest.bool "disarmed after firing" false (Faults.armed h);
  Memory.Region.store r ~proc:0 ~off:4 "v";
  check Alcotest.int "one recovery crash counted" 1
    (Faults.counters h).Faults.recovery_crashes;
  Faults.remove h

(* {1 Recovery idempotence, exhaustively} *)

(* The acceptance property: starting from one crashed (and media-faulted)
   durable image, crash the hardened recovery at EVERY durable-memory
   operation in turn; after each interruption a re-run must adopt exactly
   the recovered history and state of an uninterrupted recovery. The
   durable image is reset from a saved snapshot before every trial, so the
   trials are independent and the reference is fixed. *)
let recovery_idempotence_exhaustive ~media ?(replicas = 1) () =
  let path = Filename.temp_file "onll_faults" ".img" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj =
    C.make
      { Onll_core.Onll.Config.default with
        Onll_core.Onll.Config.log_capacity = 4096; replicas }
  in
  let mem = Sim.memory sim in
  let body _ = for _ = 1 to 6 do ignore (C.update obj Cs.Increment) done in
  let h0 =
    Faults.install mem
      (if media then
         { (Faults.Plan.default ~seed:7) with
           Faults.Plan.flush_fail_prob = 0.; fence_fail_prob = 0. }
       else Faults.Plan.none)
  in
  let outcome =
    Sim.run sim
      (Onll_sched.Sched.Strategy.random_with_crash ~seed:3 ~crash_at_step:50)
      [| body; body |]
  in
  Faults.remove h0;
  check Alcotest.bool "workload crashed" true
    (outcome = Onll_sched.Sched.World.Crashed);
  Memory.save_image mem ~path;
  (* Reference: two uninterrupted recoveries (the second pins plain
     idempotence on an already-repaired image). *)
  Memory.load_image mem ~path;
  let ref_report = C.recover_report obj in
  let ref_ops = C.recovered_ops obj in
  let ref_val = C.read obj Cs.Get in
  let r2 = C.recover_report obj in
  check Alcotest.bool "second recovery adopts the same ops" true
    (C.recovered_ops obj = ref_ops);
  check Alcotest.int "second recovery, same state" ref_val (C.read obj Cs.Get);
  check Alcotest.bool "second recovery repairs nothing" true
    (List.for_all
       (fun (_, s) -> s.Onll_plog.Plog.quarantined_spans = 0)
       r2.Onll_core.Onll.Recovery_report.salvage);
  ignore ref_report;
  (* Exhaustive interruption sweep. *)
  let h = Faults.install mem Faults.Plan.none in
  let trials = ref 0 in
  let fired = ref true in
  while !fired do
    Memory.load_image mem ~path;
    Faults.arm_recovery_crash h ~at_op:!trials;
    (match C.recover_report obj with
    | _ ->
        (* recovery finished in fewer ops than the fuse: sweep complete *)
        Faults.disarm h;
        fired := false
    | exception Memory.Injected_crash ->
        Memory.crash mem ~policy:Onll_nvm.Crash_policy.Drop_all;
        let _second = C.recover_report obj in
        if C.recovered_ops obj <> ref_ops then
          Alcotest.failf
            "crash at recovery op %d: re-recovery adopted %d ops, reference \
             %d"
            !trials
            (List.length (C.recovered_ops obj))
            (List.length ref_ops);
        check Alcotest.int
          (Printf.sprintf "crash at recovery op %d: same state" !trials)
          ref_val (C.read obj Cs.Get));
    incr trials
  done;
  Faults.remove h;
  check Alcotest.bool
    (Printf.sprintf "sweep covered every recovery step (%d)" !trials)
    true
    (!trials > 5)

let test_recovery_idempotent_exhaustive_clean () =
  recovery_idempotence_exhaustive ~media:false ()

let test_recovery_idempotent_exhaustive_media () =
  recovery_idempotence_exhaustive ~media:true ()

(* The E13 acceptance half: the same sweep over a MIRRORED object, where
   recovery additionally heals cross-replica divergence — every repair
   (header re-convergence, byte copies from the intact replica, marker
   propagation) must itself be crash-safe at every durable step. *)
let test_recovery_idempotent_exhaustive_mirrored_clean () =
  recovery_idempotence_exhaustive ~media:false ~replicas:2 ()

let test_recovery_idempotent_exhaustive_mirrored_media () =
  recovery_idempotence_exhaustive ~media:true ~replicas:2 ()

(* {1 One full chaos run in the tier-1 suite} *)

let test_chaos_run_hardened_and_calibration () =
  let module Ch = Test_support.Chaos.Make (Onll_specs.Kv) in
  let plan = Test_support.Chaos_harness.plan_of_seed 4 in
  let r =
    Ch.run ~plan ~gen_update:Test_support.Gen.Kv.update
      ~gen_read:Test_support.Gen.Kv.read ()
  in
  check Alcotest.(list string) "hardened run has no violations" []
    r.Test_support.Chaos.violations;
  (* seed 4's plan injects media faults on the calibration path too; the
     audit must catch the unhardened recovery on at least one nearby seed *)
  let caught = ref false in
  for seed = 1 to 8 do
    let plan =
      { (Test_support.Chaos_harness.plan_of_seed seed) with
        Test_support.Chaos.hardened = false }
    in
    let r =
      Ch.run ~plan ~gen_update:Test_support.Gen.Kv.update
        ~gen_read:Test_support.Gen.Kv.read ()
    in
    if r.Test_support.Chaos.violations <> [] then caught := true
  done;
  check Alcotest.bool "unhardened baseline caught" true !caught

(* {1 The campaign loop (Test_support.Campaign)} *)

module Campaign = Test_support.Campaign

(* A fake per-seed run: seed [s] crashes when odd, counts [s] hits and
   [2s] misses, and fails its audit on multiples of 3. *)
let fake seed =
  {
    Campaign.crashed = seed mod 2 = 1;
    counts = [ ("hits", seed); ("misses", 2 * seed) ];
    violations = (if seed mod 3 = 0 then [ "bad"; "worse" ] else []);
  }

let fake_arm ?(counts = fun (o : Campaign.outcome) -> o.counts) seeds =
  Campaign.sum ~name:"fake" ~seeds (fun seed ->
      let o = fake seed in
      { o with counts = counts o })

let test_campaign_sums_per_key () =
  let r = fake_arm 4 in
  check Alcotest.int "runs" 4 r.Campaign.runs;
  check Alcotest.int "crashed (seeds 1 and 3)" 2 r.Campaign.crashed;
  check
    Alcotest.(list (pair string int))
    "counts summed per key, in projection order"
    [ ("hits", 10); ("misses", 20) ]
    r.Campaign.counts

let test_campaign_violations_in_seed_order () =
  let r = fake_arm 6 in
  check
    Alcotest.(list string)
    "<arm> seed <n>: <msg>, seed order"
    [
      "fake seed 3: bad";
      "fake seed 3: worse";
      "fake seed 6: bad";
      "fake seed 6: worse";
    ]
    r.Campaign.violations;
  check Alcotest.int "violations counted" 4 (Campaign.get r "violations")

let test_campaign_misaligned_keys_raise () =
  let raises counts =
    try
      ignore (fake_arm ~counts 2);
      false
    with Assert_failure _ | Invalid_argument _ -> true
  in
  (* seed 1 crashes, seed 2 does not: the second run's keys disagree *)
  let reordered (o : Campaign.outcome) =
    if o.crashed then o.counts else List.rev o.counts
  in
  let dropped (o : Campaign.outcome) =
    if o.crashed then o.counts else List.tl o.counts
  in
  check Alcotest.bool "keys out of order raise" true (raises reordered);
  check Alcotest.bool "a missing key raises" true (raises dropped)

let test_campaign_calibration_predicate () =
  let seen = ref [] in
  let c =
    Campaign.make ~title:"fake" ~header:"arm" ~columns:[] ~prefix:"fake"
      [
        Campaign.calibration ~label:"fake" ~verdict:"caught" ~seeds:9
          ~caught:(fun o -> o.Campaign.violations <> [])
          (fun seed ->
            seen := seed :: !seen;
            fake seed);
      ]
  in
  let s = Campaign.run c in
  check Alcotest.int "only runs the predicate accepts (seeds 3, 6, 9)" 3
    (Campaign.get (snd (List.hd s.Campaign.ran)) "caught");
  check
    Alcotest.(list int)
    "every seed run once" [ 9; 8; 7; 6; 5; 4; 3; 2; 1 ] !seen

(* Each row records the values its arm names, or every value. *)
let test_campaign_metrics_keys () =
  let c =
    Campaign.make ~title:"fake" ~header:"arm" ~columns:[] ~prefix:"x"
      [
        Campaign.arm ~key:"y" ~records:[ "runs"; "misses"; "violations" ]
          ~name:"listed" ~seeds:3 ~requires:[] fake;
        Campaign.arm ~key:"p" ~name:"every" ~seeds:3 ~requires:[] fake;
      ]
  in
  let dump =
    List.map
      (fun (k, v) ->
        match v with
        | Onll_obs.Metrics.Int n -> (k, n)
        | _ -> Alcotest.fail ("non-counter metric " ^ k))
      (Onll_obs.Metrics.dump (Campaign.metrics (Campaign.run c)))
  in
  let under p =
    List.filter (fun (k, _) -> String.starts_with ~prefix:p k) dump
  in
  check
    Alcotest.(list (pair string int))
    "exactly prefix.key for the listed keys"
    [ ("x.y.misses", 12); ("x.y.runs", 3); ("x.y.violations", 2) ]
    (under "x.y.");
  check
    Alcotest.(list (pair string int))
    "no keys: every field"
    [
      ("x.p.crashed", 2);
      ("x.p.hits", 6);
      ("x.p.misses", 12);
      ("x.p.runs", 3);
      ("x.p.violations", 2);
    ]
    (under "x.p.")

(* {1 The campaign values' verdicts}

   Each campaign value, run at a slice size, must hold; each doctored
   copy of its summary must have the doctored requirement named. The
   doctored arms are picked by name here, not by the requirements they
   carry, so an arm that lost a requirement fails the check. *)

let campaigns =
  lazy
    (let module Ch = Test_support.Chaos_harness in
     List.map
       (fun (name, c) -> (name, Campaign.run c))
       [
         ("E8", Test_support.Fuzz.e8 ~seeds:6);
         ("E12", Ch.e12 ~seeds:4 ~calibration_seeds:15);
         ("E13", Ch.e13 ~seeds_per_object:4 ~dual_seeds:3);
         ("E14", Ch.e14 ~seeds:10);
         ("E15", Test_support.Session_chaos.e15 ~seeds_per_arm:6);
         ("E16", Ch.e16 ~seeds:10);
         ("E18", Test_support.Service_chaos.e18 ~seeds:3);
         ("E19", Test_support.Txn_chaos.e19 ~seeds:6 ~calibration_seeds:8);
         ("E20", Test_support.Relaxed_chaos.e20 ~seeds:6 ~calibration_seeds:8);
       ]
     @ [
         ( "E17",
           Test_support.Temp_dir.with_fresh ~prefix:"onll-test-e17" (fun dir ->
               Campaign.run
                 (Test_support.File_chaos.e17
                    ~runner:Test_support.File_chaos.In_process ~dir ~seeds:3
                    ~target:6)) );
       ])

let summary name = List.assoc name (Lazy.force campaigns)

(* [s] with [f] applied to the rows of the arms named in [arms]. *)
let doctor s ~arms f =
  {
    s with
    Campaign.ran =
      List.map
        (fun (a, r) ->
          if List.mem a.Campaign.name arms then (a, f r) else (a, r))
        s.Campaign.ran;
  }

let set key v (r : Campaign.row) =
  {
    r with
    counts = List.map (fun (k, x) -> (k, if k = key then v else x)) r.counts;
  }

(* The verdict names a requirement over [key] on every arm in [arms]. *)
let names ~what s ~arms ~key =
  let unmet = Campaign.verdict s in
  List.iter
    (fun arm ->
      check Alcotest.bool
        (Printf.sprintf "%s: %s named on %s" what key arm)
        true
        (List.exists
           (fun u ->
             List.mem key u.Campaign.requirement.keys
             && List.mem arm u.Campaign.rows)
           unmet))
    arms

let test_verdict_clean () =
  List.iter
    (fun (name, s) ->
      check Alcotest.(list string) (name ^ " holds") []
        (List.map Campaign.describe (Campaign.verdict s)))
    (Lazy.force campaigns)

let test_verdict_names_violation () =
  List.iter
    (fun (name, s) ->
      List.iter
        (fun (a, _) ->
          match a.Campaign.role with
          | Campaign.Row _ ->
              let arms = [ a.Campaign.name ] in
              let key, f =
                if name = "E8" then ("failures", set "failures" 1)
                else
                  ( "violations",
                    fun (r : Campaign.row) ->
                      { r with violations = [ "doctored" ] } )
              in
              names ~what:name (doctor s ~arms f) ~arms ~key
          | _ -> ())
        s.Campaign.ran)
    (Lazy.force campaigns)

let test_verdict_names_calibration () =
  List.iter
    (fun name ->
      let s = summary name in
      let arms =
        List.filter_map
          (fun (a, _) ->
            match a.Campaign.role with
            | Campaign.Row _ -> None
            | _ -> Some a.Campaign.name)
          s.Campaign.ran
      in
      check Alcotest.bool (name ^ " has a calibration") true (arms <> []);
      let uncaught (r : Campaign.row) =
        { r with counts = List.map (fun (k, _) -> (k, 0)) r.counts }
      in
      let s = doctor s ~arms uncaught in
      check Alcotest.bool (name ^ ": caught 0 is named") true
        (List.exists
           (fun u ->
             List.exists (fun a -> List.mem a u.Campaign.rows) arms)
           (Campaign.verdict s)))
    [ "E12"; "E19"; "E20" ]

let test_verdict_names_mirrored_loss () =
  List.iter
    (fun (name, arms) ->
      List.iter
        (fun arm ->
          let arms = [ arm ] in
          names ~what:name
            (doctor (summary name) ~arms (set "reported_lost" 1))
            ~arms ~key:"reported_lost")
        arms)
    [
      ("E13", [ "counter"; "queue"; "kv"; "stack" ]);
      ("E14", [ "kv/sharded+mirrored" ]);
      ("E16", [ "kv/batched+mirrored" ]);
    ]

(* E13's unmirrored row carries the must-lose requirement itself (E13
   has no calibration arm: the row is its scale check). *)
let test_verdict_names_unmirrored_without_loss () =
  let arms = [ "kv/unmirrored" ] in
  names ~what:"E13"
    (doctor (summary "E13") ~arms (fun r ->
         set "tail_ambiguous" 0 (set "reported_lost" 0 r)))
    ~arms ~key:"reported_lost"

let test_verdict_names_naive_without_duplicates () =
  let arms = [ "counter/naive"; "ledger/naive" ] in
  names ~what:"E15"
    (doctor (summary "E15") ~arms (set "duplicates" 0))
    ~arms ~key:"duplicates"

let test_verdict_names_risk_over_budget () =
  let arms = [ "relaxed" ] in
  names ~what:"E20"
    (doctor (summary "E20") ~arms (set "risk.hist.over" 1))
    ~arms ~key:"risk.hist.over"

(* E17's and E18's in-process slices name an audit with nothing to
   check: a restart arm that killed no epoch, a sticky-EIO arm that never
   degraded, and a dedup slice that applied an op twice. *)
let test_verdict_names_unbitten_restart () =
  List.iter
    (fun name ->
      let arms = [ "restart.plain"; "restart.mirrored" ] in
      List.iter
        (fun arm ->
          let arms = [ arm ] in
          names ~what:name
            (doctor (summary name) ~arms (set "kills" 0))
            ~arms ~key:"kills")
        arms)
    [ "E17"; "E18" ]

let test_verdict_names_sticky_eio_without_degrading () =
  let arms = [ "eio.sticky" ] in
  names ~what:"E17"
    (doctor (summary "E17") ~arms (set "degraded" 0))
    ~arms ~key:"degraded"

let test_verdict_names_dedup_duplicate () =
  let arms = [ "dedup" ] in
  names ~what:"E18"
    (doctor (summary "E18") ~arms (set "duplicates" 1))
    ~arms ~key:"duplicates"

(* {1 Scrubbing under active rot} *)

let test_scrub_under_active_rot_never_spreads_damage () =
  (* Regression: the scrubber runs while rot keeps striking, so a replica
     can be corrupted BETWEEN the probe that validated it and the load of
     the bytes to copy. An unvalidated copy would spread that fresh damage
     onto the intact mirror — turning a repairable single-copy fault into
     an unrepairable all-copy loss. The repair path revalidates the loaded
     bytes themselves before propagating them; with rot on the primary
     only, no scrub may ever quarantine and recovery must be loss-free. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:65536 ~replicas:2 () in
  let plan =
    { Faults.Plan.none with
      Faults.Plan.seed = 1;
      rot_ops_interval = 2;
      media_window = 2048;
      target = (fun n -> not (Onll_plog.Plog.is_mirror_region n)) }
  in
  let h = Faults.install (Sim.memory sim) plan in
  let unrepairable = ref 0 in
  for i = 1 to 120 do
    P.append log (Printf.sprintf "entry-%04d" i);
    let s = P.scrub log in
    unrepairable := !unrepairable + s.Onll_plog.Plog.unrepairable_spans
  done;
  Faults.set_rot h false;
  check Alcotest.int "no scrub ever quarantined (mirror stayed intact)" 0
    !unrepairable;
  check Alcotest.bool "rot actually fired, heavily" true
    ((Faults.counters h).Faults.rot_flips > 100);
  Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r, _ = P.recover log in
  Faults.remove h;
  check Alcotest.int "recovery lost nothing" 0 (Onll_plog.Plog.report_lost r);
  check Alcotest.int "every entry survived" 120 (P.entry_count log)

let test_relocate_under_active_rot_never_loses () =
  (* Regression: relocate used to bulk-copy the live span from the primary
     with no CRC check and then zero the old offsets in every replica —
     under primary-only rot that propagates fresh damage onto the mirror
     AND destroys the mirror's only intact copy. With the record-by-record
     validated copy, a scrub+compact cycle run under ACTIVE primary rot
     must never lose an acknowledged entry: interior damage is always
     healed from the mirror, never quarantined. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:65536 ~replicas:2 () in
  let plan =
    { Faults.Plan.none with
      Faults.Plan.seed = 7;
      rot_ops_interval = 2;
      media_window = 2048;
      target = (fun n -> not (Onll_plog.Plog.is_mirror_region n)) }
  in
  let h = Faults.install (Sim.memory sim) plan in
  (* Slide a 4-entry live window: every drop is followed by a relocate,
     so the copy keeps crossing freshly rotted territory. Scrub first, as
     the compaction discipline does, but rot keeps striking between the
     scrub and the copy — exactly the window the validated copy closes. *)
  let live = Queue.create () in
  for i = 1 to 80 do
    let e = Printf.sprintf "entry-%04d" i in
    P.append log e;
    Queue.add e live;
    if Queue.length live > 4 then begin
      ignore (Queue.take live);
      (* Pause rot for the head advance — set_head's scan reads the
         primary only and is not the repair path under test — then run
         the relocate itself under active rot: its record loads tick the
         fault hooks, so rot strikes mid-copy, exactly the window the
         validated per-record copy must close. *)
      Faults.set_rot h false;
      ignore (P.scrub log);
      P.set_head log 1;
      Faults.set_rot h true;
      P.relocate log
    end
  done;
  Faults.set_rot h false;
  check Alcotest.bool "rot actually fired, heavily" true
    ((Faults.counters h).Faults.rot_flips > 50);
  Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r, _ = P.recover log in
  Faults.remove h;
  (* rot beyond the tail may be truncated as torn garbage (it never held
     data), but no interior span may ever be quarantined: the mirror
     always has the intact copy *)
  check Alcotest.int "nothing quarantined" 0
    r.Onll_plog.Plog.quarantined_spans;
  check Alcotest.(list string) "the exact live window survives"
    (List.of_seq (Queue.to_seq live))
    (P.entries log)

(* {1 Tail-ambiguity disambiguation (E12 -> E13)} *)

let test_mirroring_disambiguates_tail_faults () =
  (* E12's residual excuse: on a single-copy log, a media fault on the last
     entry is indistinguishable from a torn append, so the audit lets a
     missing completed op pass as `Tail_ambiguous`. Find seeds where the
     unmirrored campaign actually claims that excuse, then re-run the SAME
     seeds mirrored with primary-only faults: the excuse is revoked there
     (chaos.ml tightens it to replicas = 1 or all-replica fault scopes) and
     every such op must instead be repaired from the mirror — zero losses,
     zero ambiguity, zero violations. *)
  let module Ch = Test_support.Chaos.Make (Onll_specs.Kv) in
  let run plan =
    Ch.run ~plan ~gen_update:Test_support.Gen.Kv.update
      ~gen_read:Test_support.Gen.Kv.read ()
  in
  let ambiguous_seeds = ref [] in
  for seed = 1 to 60 do
    let r = run (Test_support.Chaos_harness.plan_of_seed seed) in
    if r.Test_support.Chaos.tail_ambiguous > 0 then
      ambiguous_seeds := seed :: !ambiguous_seeds
  done;
  check Alcotest.bool "found genuinely ambiguous unmirrored seeds" true
    (!ambiguous_seeds <> []);
  List.iter
    (fun seed ->
      let plan = Test_support.Chaos_harness.mirrored_plan_of_seed seed in
      let r = run plan in
      check Alcotest.(list string)
        (Printf.sprintf "seed %d mirrored: no violations" seed)
        [] r.Test_support.Chaos.violations;
      check Alcotest.int
        (Printf.sprintf "seed %d mirrored: nothing reported lost" seed)
        0 r.Test_support.Chaos.lost_reported;
      check Alcotest.int
        (Printf.sprintf "seed %d mirrored: no ambiguity left" seed)
        0 r.Test_support.Chaos.tail_ambiguous)
    !ambiguous_seeds

(* {1 Backend-uniform fault scoping (E17)}

   One {!Faults.Plan.t} must mean the same thing on both backends: the
   sim installer and the file installer roll transient flush/fence
   failures with the same discipline (same short-circuits, same
   consecutive cap, same SplitMix draw order from the same seed) and the
   same [target] region scoping — so a plan tuned against the simulator
   transfers to real files without re-tuning. Drive an identical
   store/flush/fence program through both backends via the shared
   {!Onll_nvm.Memory_sig.S} surface and require byte-identical injection
   sites. *)

let parity_plan =
  {
    Faults.Plan.none with
    Faults.Plan.seed = 42;
    flush_fail_prob = 0.3;
    fence_fail_prob = 0.2;
    max_consecutive_transients = 2;
    target = (fun n -> n = "a");
  }

let drive_parity (module B : Onll_nvm.Memory_sig.S) =
  let a = B.region ~name:"a" ~size:1024 in
  let b = B.region ~name:"b" ~size:1024 in
  let faults = ref [] in
  let record what i = faults := (what, i) :: !faults in
  for i = 0 to 59 do
    let off = i mod 60 * 16 in
    B.store a ~proc:0 ~off (String.make 8 'x');
    B.store b ~proc:0 ~off (String.make 8 'y');
    (try B.flush a ~proc:0 ~off ~len:8
     with Memory.Transient_fault _ -> record "flush.a" i);
    (try B.flush b ~proc:0 ~off ~len:8
     with Memory.Transient_fault _ -> record "flush.b" i);
    try B.fence ~proc:0 with Memory.Transient_fault _ -> record "fence" i
  done;
  List.rev !faults

let test_plan_scoping_uniform_across_backends () =
  let sim_mem = Memory.create ~max_processes:1 () in
  let h_sim = Faults.install sim_mem parity_plan in
  let sim_sites = drive_parity (Memory.instance sim_mem) in
  Faults.remove h_sim;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "onll-parity-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let fmem = Onll_nvm.File_memory.create ~dir ~max_processes:1 () in
  let h_file =
    Faults.install_file fmem { Faults.File_plan.none with base = parity_plan }
  in
  let file_sites = drive_parity (Onll_nvm.File_memory.instance fmem) in
  Faults.remove_file h_file;
  Onll_nvm.File_memory.close fmem;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  check Alcotest.bool "plan injected something" true (sim_sites <> []);
  check Alcotest.bool "targeted flushes faulted" true
    (List.exists (fun (w, _) -> w = "flush.a") sim_sites);
  check Alcotest.bool "untargeted region never faulted" true
    (not (List.exists (fun (w, _) -> w = "flush.b") sim_sites));
  check
    Alcotest.(list (pair string int))
    "identical injection sites on both backends" sim_sites file_sites

let () =
  Alcotest.run "faults"
    [
      ( "determinism",
        [
          Alcotest.test_case "media corruption is seeded" `Quick
            test_media_corruption_deterministic;
          Alcotest.test_case "Crash_policy.Random contract" `Quick
            test_crash_policy_random_deterministic;
        ] );
      ( "transients",
        [
          Alcotest.test_case "capped and retried" `Quick
            test_transient_failures_capped_and_retried;
        ] );
      ( "fuse",
        [
          Alcotest.test_case "fires at the armed op" `Quick
            test_armed_fuse_fires_at_exact_op;
        ] );
      ( "idempotence",
        [
          Alcotest.test_case "crash at every recovery step (clean logs)"
            `Quick test_recovery_idempotent_exhaustive_clean;
          Alcotest.test_case "crash at every recovery step (media faults)"
            `Quick test_recovery_idempotent_exhaustive_media;
          Alcotest.test_case "crash at every recovery step (mirrored)" `Quick
            test_recovery_idempotent_exhaustive_mirrored_clean;
          Alcotest.test_case
            "crash at every recovery step (mirrored + media)" `Quick
            test_recovery_idempotent_exhaustive_mirrored_media;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "hardened clean, unhardened caught" `Quick
            test_chaos_run_hardened_and_calibration;
          Alcotest.test_case "mirroring disambiguates tail faults" `Quick
            test_mirroring_disambiguates_tail_faults;
          Alcotest.test_case "scrub under active rot never spreads damage"
            `Quick test_scrub_under_active_rot_never_spreads_damage;
          Alcotest.test_case "relocate under active rot never loses" `Quick
            test_relocate_under_active_rot_never_loses;
        ] );
      ( "campaign loop",
        [
          Alcotest.test_case "counts sum per key" `Quick
            test_campaign_sums_per_key;
          Alcotest.test_case "violations in seed order" `Quick
            test_campaign_violations_in_seed_order;
          Alcotest.test_case "misaligned count keys raise" `Quick
            test_campaign_misaligned_keys_raise;
          Alcotest.test_case "calibration counts its predicate" `Quick
            test_campaign_calibration_predicate;
          Alcotest.test_case "metrics records exactly the listed keys"
            `Quick test_campaign_metrics_keys;
          Alcotest.test_case "verdict: every campaign holds at a slice"
            `Quick test_verdict_clean;
          Alcotest.test_case "verdict names a violation in a hardened row"
            `Quick test_verdict_names_violation;
          Alcotest.test_case "verdict names a calibration caught 0" `Quick
            test_verdict_names_calibration;
          Alcotest.test_case "verdict names a loss on a lossless mirror"
            `Quick test_verdict_names_mirrored_loss;
          Alcotest.test_case "verdict names E15's naive arm without dups"
            `Quick test_verdict_names_naive_without_duplicates;
          Alcotest.test_case "verdict names an E20 depth over the budget"
            `Quick test_verdict_names_risk_over_budget;
          Alcotest.test_case "verdict names a lossless full unmirrored row"
            `Quick test_verdict_names_unmirrored_without_loss;
          Alcotest.test_case "verdict names a restart arm with no kill"
            `Quick test_verdict_names_unbitten_restart;
          Alcotest.test_case "verdict names a sticky EIO that never degraded"
            `Quick test_verdict_names_sticky_eio_without_degrading;
          Alcotest.test_case "verdict names a dedup duplicate" `Quick
            test_verdict_names_dedup_duplicate;
        ] );
      ( "backend parity",
        [
          Alcotest.test_case "plan scoping uniform across backends" `Quick
            test_plan_scoping_uniform_across_backends;
        ] );
    ]
