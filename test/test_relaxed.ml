(* Bounded-staleness relaxed mode (E20): risk-budgeted fence-free acks,
   the lazy drain, strict piggybacking, quantified crash loss
   (lost_acked), the unhardened calibration baseline, and the buffered
   checker closing the loop on a real history. *)

open Onll_machine
open Onll_sched
module Cs = Onll_specs.Counter
module Report = Onll_core.Onll.Recovery_report

let check = Alcotest.check
let default = Onll_core.Onll.Config.default

let run1 sim f = ignore (Sim.run sim Sched.Strategy.round_robin [| f |])

(* The wrapper over the paper's construction, built by hand so a test can
   reach the engine beneath it ([C]). *)
module Relaxed (M : Machine_sig.S) = struct
  module C = Onll_core.Onll.Make (M) (Cs)
  include Onll_relaxed.Make_over (M) (Cs) (C)

  let make ~max_unfenced_ops =
    attach ~max_unfenced_ops default (C.make default)
end

(* {1 Fence accounting} *)

let test_budgeted_fences () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let obj = R.make ~max_unfenced_ops:4 in
  run1 sim (fun _ ->
      for i = 1 to 3 do
        let _, v = R.update obj Cs.Increment in
        check Alcotest.int "acked value" i v
      done;
      check Alcotest.int "no fences below the budget" 0
        (M.persistent_fences ());
      check Alcotest.int "three ops at risk" 3 (R.pending_ops obj);
      ignore (R.update obj Cs.Increment);
      check Alcotest.int "one lazy fence at depth k" 1
        (M.persistent_fences ());
      check Alcotest.int "tail drained" 0 (R.pending_ops obj);
      (* solo-after-quiesce floor: the next k updates cost exactly one
         more fence — 1/k per update, never less *)
      for _ = 1 to 4 do
        ignore (R.update obj Cs.Increment)
      done;
      check Alcotest.int "1/k fences per update" 2 (M.persistent_fences ());
      check Alcotest.int "risk peak pinned at the budget" 4 (R.risk_peak obj);
      check Alcotest.int "reads stay free" 8 (R.read obj Cs.Get);
      check Alcotest.int "reads cost no fence" 2 (M.persistent_fences ()))

let test_strict_piggyback () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let obj = R.make ~max_unfenced_ops:8 in
  run1 sim (fun _ ->
      ignore (R.update obj Cs.Increment);
      ignore (R.update obj Cs.Increment);
      check Alcotest.int "deferred" 0 (M.persistent_fences ());
      let _, v = R.update_strict obj Cs.Increment in
      check Alcotest.int "strict value" 3 v;
      check Alcotest.int "strict costs exactly one fence" 1
        (M.persistent_fences ());
      check Alcotest.int "and drains its predecessors" 0 (R.pending_ops obj));
  (* the piggybacked fence made all three durable *)
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = R.recover_report obj in
  check Alcotest.bool "clean" true (Report.clean r);
  check Alcotest.(list int) "nothing lost" []
    (List.map (fun id -> id.Onll_core.Onll.id_seq) r.Report.lost_acked);
  check Alcotest.int "all survive" 3 (R.read obj Cs.Get)

let test_budget_override_tightens () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let obj = R.make ~max_unfenced_ops:8 in
  run1 sim (fun _ ->
      ignore (R.update ~budget:2 obj Cs.Increment);
      check Alcotest.int "below the tight budget" 0 (M.persistent_fences ());
      (* the default-budget ack joins a tail governed by the tightest
         pending promise *)
      ignore (R.update obj Cs.Increment);
      check Alcotest.int "tightest pending budget governs" 1
        (M.persistent_fences ());
      check Alcotest.int "drained" 0 (R.pending_ops obj))

(* {1 Crash loss is the budgeted suffix, precisely reported} *)

let test_crash_loses_exactly_the_unfenced_suffix () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let obj = R.make ~max_unfenced_ops:4 in
  let ids = ref [] in
  run1 sim (fun _ ->
      for _ = 1 to 6 do
        ids := fst (R.update obj Cs.Increment) :: !ids
      done);
  let ids = List.rev !ids in
  check Alcotest.int "two acks at risk" 2 (R.pending_ops obj);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = R.recover_report obj in
  check Alcotest.bool "no durable data was lost" true (Report.clean r);
  check Alcotest.(list int) "lost = the acked unfenced suffix" [ 4; 5 ]
    (List.map (fun id -> id.Onll_core.Onll.id_seq) r.Report.lost_acked);
  check Alcotest.int "the drained prefix survives" 4 (R.read obj Cs.Get);
  List.iteri
    (fun i id ->
      check Alcotest.bool
        (Printf.sprintf "was_linearized #%d" i)
        (i < 4)
        (R.was_linearized obj id))
    ids;
  (* convergence: ordinary durable linearizability from here on *)
  let ops1 =
    List.filter (fun id -> R.was_linearized obj id) ids
  in
  let r2 = R.recover_report obj in
  check Alcotest.(list int) "idempotent re-recovery, no new loss" []
    (List.map (fun id -> id.Onll_core.Onll.id_seq) r2.Report.lost_acked);
  check Alcotest.bool "same adopted set" true
    (ops1 = List.filter (fun id -> R.was_linearized obj id) ids);
  run1 sim (fun _ ->
      let _, v = R.update_strict obj Cs.Increment in
      check Alcotest.int "post-recovery update applies" 5 v)

let test_flush_empties_the_risk_window () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let obj = R.make ~max_unfenced_ops:8 in
  run1 sim (fun _ ->
      ignore (R.update obj Cs.Increment);
      ignore (R.update obj Cs.Increment);
      R.flush obj;
      check Alcotest.int "flush fenced once" 1 (M.persistent_fences ());
      R.flush obj;
      check Alcotest.int "empty flush is free" 1 (M.persistent_fences ()));
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = R.recover_report obj in
  check Alcotest.int "nothing lost after flush" 0
    (List.length r.Report.lost_acked);
  check Alcotest.int "both survive" 2 (R.read obj Cs.Get)

let test_checkpoint_covers_the_tail () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let obj = R.make ~max_unfenced_ops:8 in
  run1 sim (fun _ ->
      for _ = 1 to 3 do
        ignore (R.update obj Cs.Increment)
      done;
      ignore (R.checkpoint obj);
      check Alcotest.int "checkpoint made the tail durable" 0
        (R.pending_ops obj));
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = R.recover_report obj in
  check Alcotest.int "nothing lost" 0 (List.length r.Report.lost_acked);
  check Alcotest.int "summarised ops survive" 3 (R.read obj Cs.Get)

(* {1 A drain is an engine record}

   The tail drains as one Ops record in the draining process's own
   engine log, at the operations' execution indices, so the inner
   object's own recovery — no oracle, no wrapper — adopts every drained
   operation, and the object has no region besides its engine logs. *)

let test_drains_are_engine_records () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let obj = R.make ~max_unfenced_ops:4 in
  let ids = ref [] in
  run1 sim (fun _ ->
      for _ = 1 to 8 do
        ids := fst (R.update obj Cs.Increment) :: !ids
      done);
  check Alcotest.int "two full drains, nothing at risk" 0 (R.pending_ops obj);
  let logs = (R.snapshot obj).Onll_core.Onll.Snapshot.logs in
  check
    Alcotest.(list (list int))
    "one engine log, one record per drain" [ [ 4; 4 ] ]
    (List.map (fun l -> l.Onll_core.Onll.Snapshot.ops_per_entry) logs);
  check Alcotest.bool "every log is an engine log" true
    (List.for_all
       (fun l ->
         List.mem "plog"
           (String.split_on_char '.' l.Onll_core.Onll.Snapshot.log_name))
       logs);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let inner = R.inner obj in
  let r = R.C.recover_report inner in
  check Alcotest.bool "the inner recovery is clean" true (Report.clean r);
  check Alcotest.int "and adopts every drained op" 8 r.Report.recovered_ops;
  List.iter
    (fun id ->
      check Alcotest.bool "drained op linearized" true
        (R.C.was_linearized inner id))
    !ids;
  run1 sim (fun _ -> check Alcotest.int "value" 8 (R.C.read inner Cs.Get))

(* {1 Recoverable faults release the lock}

   A degraded store or a transient fault escapes the wrapper to the
   caller (the serve layer catches both and keeps refusing/serving), so
   an escaping exception must leave the tail lock free — leaking it
   would wedge every later update, flush and quiesce in the lock's
   busy-wait. *)

let test_escaping_fault_releases_lock () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let obj = R.make ~max_unfenced_ops:4 in
  let run body =
    check Alcotest.bool "the run completes" true
      (Sim.run ~max_steps:200_000 sim Sched.Strategy.round_robin [| body |]
      = Sched.World.Completed)
  in
  (* a flush storm on every region: the strict update's drain times out
     and the fault escapes with the tail lock held *)
  let storm =
    Onll_faults.Faults.install (Sim.memory sim)
      {
        Onll_faults.Faults.Plan.none with
        seed = 7;
        flush_fail_prob = 1.0;
        max_consecutive_transients = 1_000_000;
      }
  in
  run (fun _ ->
      match R.update_strict obj Cs.Increment with
      | _ -> Alcotest.fail "the storm never bit"
      | exception Onll_nvm.Memory.Transient_fault _ -> ());
  Onll_faults.Faults.remove storm;
  run (fun _ ->
      (* the lock was released on the way out: the object keeps serving,
         and the failed update, still staged in the tail, counts first *)
      let _, v = R.update obj Cs.Increment in
      check Alcotest.int "serves after a recoverable fault" 2 v;
      R.flush obj;
      check Alcotest.int "flush still drains" 0 (R.pending_ops obj))

(* A strict update whose drain failed stays staged, unavailable, in the
   tail. A checkpoint then cannot cover it (it summarises up to the
   newest available operation), so the op stays in the tail and the next
   drain writes it, below the op that counted it. *)
let test_failed_drain_survives_a_checkpoint () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let obj = R.make ~max_unfenced_ops:4 in
  let storm =
    Onll_faults.Faults.install (Sim.memory sim)
      {
        Onll_faults.Faults.Plan.none with
        seed = 7;
        flush_fail_prob = 1.0;
        max_consecutive_transients = 1_000_000;
      }
  in
  ignore
    (Sim.run ~max_steps:200_000 sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           match R.update_strict obj Cs.Increment with
           | _ -> Alcotest.fail "the storm never bit"
           | exception Onll_nvm.Memory.Transient_fault _ -> ());
       |]
      : Sched.World.outcome);
  Onll_faults.Faults.remove storm;
  run1 sim (fun _ ->
      ignore (R.checkpoint obj);
      check Alcotest.int "the failed op stays in the tail" 1
        (R.pending_ops obj);
      let _, v = R.update_strict obj Cs.Increment in
      check Alcotest.int "and counts first" 2 v);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = R.recover_report obj in
  check Alcotest.bool "clean" true (Report.clean r);
  check Alcotest.int "both survive" 2 (R.read obj Cs.Get)

let test_bad_budget_is_recoverable () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let obj = R.make ~max_unfenced_ops:4 in
  run1 sim (fun _ ->
      (match R.update ~budget:0 obj Cs.Increment with
      | _ -> Alcotest.fail "budget 0 must be rejected"
      | exception Invalid_argument _ -> ());
      (* validation happens before the lock: the object is not wedged *)
      let _, v = R.update obj Cs.Increment in
      check Alcotest.int "object still serves" 1 v)

(* {1 The calibration baseline the audits must catch} *)

let test_unhardened_recovery_loses_silently () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let obj = R.make ~max_unfenced_ops:2 in
  let ids = ref [] in
  run1 sim (fun _ ->
      for _ = 1 to 3 do
        ids := fst (R.update obj Cs.Increment) :: !ids
      done);
  check Alcotest.int "drained at depth 2, one ack at risk" 1
    (R.pending_ops obj);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  R.recover_unhardened obj;
  (* the drained pair is durable, but the unfenced ack is gone — and the
     unhardened path, with the ledger forgotten, has no report to admit
     it in *)
  check Alcotest.int "the unfenced ack silently gone" 2 (R.read obj Cs.Get);
  check Alcotest.bool "not linearized" false
    (R.was_linearized obj (List.hd !ids))

(* {1 The checker dual closes the loop on a real history} *)

let test_history_buffered_checkable () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let module H = Onll_histcheck.Histcheck.Make (Cs) in
  let obj = R.make ~max_unfenced_ops:4 in
  let rec_ = H.Recorder.create () in
  run1 sim (fun _ ->
      for _ = 1 to 6 do
        ignore
          (H.Recorder.run_update rec_ ~proc:0 Cs.Increment (fun op ->
               snd (R.update obj op)))
      done);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  H.Recorder.crash rec_;
  let r = R.recover_report obj in
  (* per-process sequence numbers are the recorder uids here: one
     process, recorded in ack order *)
  let declared_lost =
    List.map (fun id -> id.Onll_core.Onll.id_seq) r.Report.lost_acked
  in
  check Alcotest.(list int) "report names the suffix" [ 4; 5 ] declared_lost;
  run1 sim (fun _ ->
      ignore
        (H.Recorder.run_read rec_ ~proc:0 Cs.Get (fun op -> R.read obj op)));
  let h = H.Recorder.history rec_ in
  (match H.check h with
  | H.Violation _ -> ()
  | _ -> Alcotest.fail "strict checker must reject the lost suffix");
  (match H.check_buffered ~staleness:4 ~declared_lost h with
  | H.Buffered_linearizable { lost; _ } ->
      check Alcotest.(list int) "checker agrees with the report" [ 4; 5 ]
        (List.sort compare lost)
  | v ->
      Alcotest.failf "buffered checker rejected a budgeted loss: %a"
        H.pp_buffered_verdict v);
  (* the report is load-bearing: declaring less than was lost fails *)
  match H.check_buffered ~staleness:4 ~declared_lost:[ 5 ] h with
  | H.Buffered_linearizable _ ->
      Alcotest.fail "an under-declaring report must be rejected"
  | H.Buffered_violation _ | H.Buffered_budget_exhausted -> ()

(* {1 The E20 campaign} *)

(* A slice of the E20 campaign: plain and mirrored crash sweeps lose only
   the budgeted, reported suffix, and each arm's ledger-free calibration
   is caught. *)
let test_e20_campaign_slice () =
  let module Rc = Test_support.Relaxed_chaos in
  List.iter
    (fun (name, plan_of) ->
      let row = Rc.arm ~plan_of ~name ~seeds:6 () in
      check Alcotest.(list string) (name ^ ": no violations") []
        row.Test_support.Campaign.violations;
      check Alcotest.bool (name ^ ": calibration caught") true
        (Rc.calibrate ~plan_of ~seeds:8 () > 0))
    [
      ("relaxed", Rc.plan_of_seed);
      ("relaxed/mirrored", Rc.mirrored_plan_of_seed);
    ]

let () =
  Alcotest.run "relaxed"
    [
      ( "fences",
        [
          Alcotest.test_case "budgeted lazy fences" `Quick
            test_budgeted_fences;
          Alcotest.test_case "strict piggyback" `Quick test_strict_piggyback;
          Alcotest.test_case "budget override tightens" `Quick
            test_budget_override_tightens;
        ] );
      ( "crash loss",
        [
          Alcotest.test_case "lost = unfenced suffix" `Quick
            test_crash_loses_exactly_the_unfenced_suffix;
          Alcotest.test_case "flush" `Quick test_flush_empties_the_risk_window;
          Alcotest.test_case "checkpoint covers tail" `Quick
            test_checkpoint_covers_the_tail;
          Alcotest.test_case "unhardened calibration" `Quick
            test_unhardened_recovery_loses_silently;
          Alcotest.test_case "E20 campaign slice: clean, calibration caught"
            `Quick test_e20_campaign_slice;
        ] );
      ( "drain records",
        [
          Alcotest.test_case "the inner recovery adopts every drain" `Quick
            test_drains_are_engine_records;
        ] );
      ( "fault containment",
        [
          Alcotest.test_case "escaping fault releases the lock" `Quick
            test_escaping_fault_releases_lock;
          Alcotest.test_case "bad budget is recoverable" `Quick
            test_bad_budget_is_recoverable;
          Alcotest.test_case "a failed drain survives a checkpoint" `Quick
            test_failed_drain_survives_a_checkpoint;
        ] );
      ( "checker",
        [
          Alcotest.test_case "history buffered-checkable" `Quick
            test_history_buffered_checkable;
        ] );
    ]
