(* Bounded staleness (E20), the engine's stale tier: risk-budgeted
   fence-free acks, the lazy drain, strict piggybacking, quantified crash
   loss (lost_acked), the unhardened calibration baseline, the buffered
   checker closing the loop on a real history, and the lock freedom the
   tier keeps: a parked update starves nobody. *)

open Onll_machine
open Onll_sched
module Cs = Onll_specs.Counter
module Report = Onll_core.Onll.Recovery_report
module Ti = Onll_core.Trace_intf

let check = Alcotest.check
let default = Onll_core.Onll.Config.default

let run1 sim f = ignore (Sim.run sim Sched.Strategy.round_robin [| f |])

(* The paper's construction with a default staleness budget [k], as the
   stack's [Relaxed (`Plain, k)] front builds it. *)
module Relaxed (M : Machine_sig.S) = struct
  include Onll_core.Onll.Make (M) (Cs)

  let stale ?(budget = max_int) (obj, k) op =
    update_stale obj ~budget:(min budget k) op

  let make ~k = (make default, k)
end

(* {1 Fence accounting} *)

let test_budgeted_fences () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let (obj, _) as r = R.make ~k:4 in
  run1 sim (fun _ ->
      for i = 1 to 3 do
        let _, v = R.stale r Cs.Increment in
        check Alcotest.int "acked value" i v
      done;
      check Alcotest.int "no fences below the budget" 0
        (M.persistent_fences ());
      check Alcotest.int "three ops at risk" 3 (R.pending_ops obj);
      ignore (R.stale r Cs.Increment);
      check Alcotest.int "one lazy fence at depth k" 1
        (M.persistent_fences ());
      check Alcotest.int "tail drained" 0 (R.pending_ops obj);
      (* solo-after-quiesce floor: the next k updates cost exactly one
         more fence — 1/k per update, never less *)
      for _ = 1 to 4 do
        ignore (R.stale r Cs.Increment)
      done;
      check Alcotest.int "1/k fences per update" 2 (M.persistent_fences ());
      check Alcotest.int "risk peak stays below the budget" 3
        (R.risk_peak obj);
      check Alcotest.int "reads stay free" 8 (R.read obj Cs.Get);
      check Alcotest.int "reads cost no fence" 2 (M.persistent_fences ()))

let test_strict_piggyback () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let (obj, _) as r = R.make ~k:8 in
  run1 sim (fun _ ->
      ignore (R.stale r Cs.Increment);
      ignore (R.stale r Cs.Increment);
      check Alcotest.int "deferred" 0 (M.persistent_fences ());
      let v = R.update obj Cs.Increment in
      check Alcotest.int "strict value" 3 v;
      check Alcotest.int "strict costs exactly one fence" 1
        (M.persistent_fences ());
      check Alcotest.int "and drains its predecessors" 0 (R.pending_ops obj));
  (* the piggybacked fence made all three durable *)
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let rep = R.recover_report obj in
  check Alcotest.bool "clean" true (Report.clean rep);
  check Alcotest.(list int) "nothing lost" []
    (List.map (fun id -> id.Onll_core.Onll.id_seq) rep.Report.lost_acked);
  check Alcotest.int "all survive" 3 (R.read obj Cs.Get)

let test_budget_override_tightens () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let (obj, _) as r = R.make ~k:8 in
  run1 sim (fun _ ->
      ignore (R.stale ~budget:2 r Cs.Increment);
      check Alcotest.int "below the tight budget" 0 (M.persistent_fences ());
      (* the default-budget ack joins a window governed by the tightest
         budget any ack in it was given *)
      ignore (R.stale r Cs.Increment);
      check Alcotest.int "tightest pending budget governs" 1
        (M.persistent_fences ());
      check Alcotest.int "drained" 0 (R.pending_ops obj))

(* {1 Crash loss is the budgeted suffix, precisely reported} *)

let test_crash_loses_exactly_the_unfenced_suffix () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let (obj, _) as r = R.make ~k:4 in
  let ids = ref [] in
  run1 sim (fun _ ->
      for _ = 1 to 6 do
        ids := fst (R.stale r Cs.Increment) :: !ids
      done);
  let ids = List.rev !ids in
  check Alcotest.int "two acks at risk" 2 (R.pending_ops obj);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let rep = R.recover_report obj in
  check Alcotest.bool "no durable data was lost" true (Report.clean rep);
  check Alcotest.(list int) "lost = the acked unfenced suffix" [ 4; 5 ]
    (List.map (fun id -> id.Onll_core.Onll.id_seq) rep.Report.lost_acked);
  check Alcotest.int "the drained prefix survives" 4 (R.read obj Cs.Get);
  List.iteri
    (fun i id ->
      check Alcotest.bool
        (Printf.sprintf "was_linearized #%d" i)
        (i < 4)
        (R.was_linearized obj id))
    ids;
  (* convergence: ordinary durable linearizability from here on *)
  let ops1 = List.filter (fun id -> R.was_linearized obj id) ids in
  let r2 = R.recover_report obj in
  check Alcotest.(list int) "idempotent re-recovery, no new loss" []
    (List.map (fun id -> id.Onll_core.Onll.id_seq) r2.Report.lost_acked);
  check Alcotest.bool "same adopted set" true
    (ops1 = List.filter (fun id -> R.was_linearized obj id) ids);
  run1 sim (fun _ ->
      check Alcotest.int "post-recovery update applies" 5
        (R.update obj Cs.Increment))

let test_flush_empties_the_risk_window () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let (obj, _) as r = R.make ~k:8 in
  run1 sim (fun _ ->
      ignore (R.stale r Cs.Increment);
      ignore (R.stale r Cs.Increment);
      R.flush obj;
      check Alcotest.int "flush fenced once" 1 (M.persistent_fences ());
      R.flush obj;
      check Alcotest.int "empty flush is free" 1 (M.persistent_fences ()));
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let rep = R.recover_report obj in
  check Alcotest.int "nothing lost after flush" 0
    (List.length rep.Report.lost_acked);
  check Alcotest.int "both survive" 2 (R.read obj Cs.Get)

let test_checkpoint_covers_the_tail () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let (obj, _) as r = R.make ~k:8 in
  run1 sim (fun _ ->
      for _ = 1 to 3 do
        ignore (R.stale r Cs.Increment)
      done;
      ignore (R.compact obj);
      check Alcotest.int "checkpoint made the tail durable" 0
        (R.pending_ops obj));
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let rep = R.recover_report obj in
  check Alcotest.int "nothing lost" 0 (List.length rep.Report.lost_acked);
  check Alcotest.int "summarised ops survive" 3 (R.read obj Cs.Get)

(* {1 A drain is an engine record}

   A drain is one Ops record in the draining process's own engine log, at
   the operations' execution indices, so the engine's recovery adopts
   every drained operation, and the object has no region besides its
   engine logs. *)

let test_drains_are_engine_records () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let (obj, _) as r = R.make ~k:4 in
  let ids = ref [] in
  run1 sim (fun _ ->
      for _ = 1 to 8 do
        ids := fst (R.stale r Cs.Increment) :: !ids
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
  let rep = R.recover_report obj in
  check Alcotest.bool "the recovery is clean" true (Report.clean rep);
  check Alcotest.int "and adopts every drained op" 8 rep.Report.recovered_ops;
  List.iter
    (fun id ->
      check Alcotest.bool "drained op linearized" true
        (R.was_linearized obj id))
    !ids;
  run1 sim (fun _ -> check Alcotest.int "value" 8 (R.read obj Cs.Get))

(* {1 Recoverable faults leave the object usable}

   A degraded store or a transient fault escapes the update to the
   caller (the serve layer catches both and keeps refusing/serving): the
   failed operation stays ordered, and the object keeps serving. *)

let storm sim =
  Onll_faults.Faults.install (Sim.memory sim)
    {
      Onll_faults.Faults.Plan.none with
      seed = 7;
      flush_fail_prob = 1.0;
      max_consecutive_transients = 1_000_000;
    }

let test_escaping_fault_leaves_the_object_usable () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let (obj, _) as r = R.make ~k:4 in
  let run body =
    check Alcotest.bool "the run completes" true
      (Sim.run ~max_steps:200_000 sim Sched.Strategy.round_robin [| body |]
      = Sched.World.Completed)
  in
  (* a flush storm on every region: the strict update's fence times out
     and the fault escapes *)
  let s = storm sim in
  run (fun _ ->
      match R.update obj Cs.Increment with
      | _ -> Alcotest.fail "the storm never bit"
      | exception Onll_nvm.Memory.Transient_fault _ -> ());
  Onll_faults.Faults.remove s;
  run (fun _ ->
      (* the object keeps serving, and the failed update, still ordered,
         counts first *)
      let _, v = R.stale r Cs.Increment in
      check Alcotest.int "serves after a recoverable fault" 2 v;
      R.flush obj;
      check Alcotest.int "flush still drains" 0 (R.pending_ops obj))

(* A strict update whose fence failed stays ordered, invisible. A
   checkpoint then cannot cover it (it summarises up to the newest
   visible operation), so the next update's window writes it, below the
   op that counted it. *)
let test_failed_drain_survives_a_checkpoint () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let obj, _ = R.make ~k:4 in
  let s = storm sim in
  ignore
    (Sim.run ~max_steps:200_000 sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           match R.update obj Cs.Increment with
           | _ -> Alcotest.fail "the storm never bit"
           | exception Onll_nvm.Memory.Transient_fault _ -> ());
       |]
      : Sched.World.outcome);
  Onll_faults.Faults.remove s;
  run1 sim (fun _ ->
      ignore (R.compact obj);
      check
        Alcotest.(list int)
        "the failed op stays ordered" [ Ti.ordered ]
        (List.filter_map
           (fun (_, f, e) -> Option.map (fun _ -> f) e)
           (R.trace_nodes obj));
      check Alcotest.int "and counts first" 2 (R.update obj Cs.Increment));
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let rep = R.recover_report obj in
  check Alcotest.bool "clean" true (Report.clean rep);
  check Alcotest.int "both survive" 2 (R.read obj Cs.Get)

let test_bad_budget_is_recoverable () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let r = R.make ~k:4 in
  run1 sim (fun _ ->
      (match R.stale ~budget:0 r Cs.Increment with
      | _ -> Alcotest.fail "budget 0 must be rejected"
      | exception Invalid_argument _ -> ());
      (* validation happens before any effect: the object still serves *)
      let _, v = R.stale r Cs.Increment in
      check Alcotest.int "object still serves" 1 v)

(* {1 The calibration baseline the audits must catch} *)

let test_unhardened_recovery_loses_silently () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module R = Relaxed (M) in
  let (obj, _) as r = R.make ~k:2 in
  let ids = ref [] in
  run1 sim (fun _ ->
      for _ = 1 to 3 do
        ids := fst (R.stale r Cs.Increment) :: !ids
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
  let (obj, _) as r = R.make ~k:4 in
  let rec_ = H.Recorder.create () in
  run1 sim (fun _ ->
      for _ = 1 to 6 do
        ignore
          (H.Recorder.run_update rec_ ~proc:0 Cs.Increment (fun op ->
               snd (R.stale r op)))
      done);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  H.Recorder.crash rec_;
  let rep = R.recover_report obj in
  (* per-process sequence numbers are the recorder uids here: one
     process, recorded in ack order *)
  let declared_lost =
    List.map (fun id -> id.Onll_core.Onll.id_seq) rep.Report.lost_acked
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
      check Alcotest.(list string) (name ^ ": every requirement holds") []
        (Test_support.Campaign.unmet
           (Rc.one ~name ~seeds:6 ~calibration_seeds:8 plan_of)))
    [
      ("relaxed", Rc.plan_of_seed);
      ("relaxed/mirrored", Rc.mirrored_plan_of_seed);
    ]

(* {1 Without a lock}

   No lock orders the stale tier, so the budget rule is the window's
   check, and a parked update delays nobody. *)

(* The acknowledged unfenced nodes — the visible ones above the newest
   durable node — after every scheduler step of two processes mixing
   [~budget:2], [~budget:64] and strict updates: always fewer than the
   tightest budget any of them was acknowledged under, and every flag
   only moves forward. *)
module type ENGINE = functor (M : Machine_sig.S) ->
  Onll_core.Onll.CONSTRUCTION
    with type update_op = Cs.update_op
     and type read_op = Cs.read_op
     and type value = Cs.value

module Plain (M : Machine_sig.S) = Onll_core.Onll.Make (M) (Cs)
module Wait_free (M : Machine_sig.S) = Onll_core.Onll.Make_wait_free (M) (Cs)
module Batched (M : Machine_sig.S) = Onll_core.Onll.Make_combining (M) (Cs)

let window_rule (module C : ENGINE) () =
  for seed = 1 to 30 do
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module E = C (M) in
    let obj = E.make default in
    let seen = Hashtbl.create 64 in
    let rank f = if f = Ti.durable then 2 else if f > 0 then 1 else 0 in
    let audit () =
      let nodes = E.trace_nodes obj in
      List.iter
        (fun (i, f, _) ->
          (match Hashtbl.find_opt seen i with
          | Some g when rank f < rank g || (rank g = rank f && f <> g) ->
              Alcotest.failf "seed %d: node %d's flag moved back (%d -> %d)"
                seed i g f
          | _ -> ());
          Hashtbl.replace seen i f)
        nodes;
      let newest_durable =
        List.fold_left
          (fun d (i, f, _) -> if f = Ti.durable then i else d)
          (-1) nodes
      in
      let acked =
        List.filter_map
          (fun (i, f, _) -> if i > newest_durable && f > 0 then Some f else None)
          nodes
      in
      match acked with
      | [] -> ()
      | b :: _ ->
          let tightest = List.fold_left min b acked in
          if List.length acked >= tightest then
            Alcotest.failf
              "seed %d: %d acknowledged unfenced nodes, tightest budget %d"
              seed (List.length acked) tightest
    in
    let base = Sched.Strategy.random ~seed in
    let strategy view =
      audit ();
      base view
    in
    let proc p _ =
      for i = 0 to 11 do
        match (i + p) mod 5 with
        | 0 | 1 -> ignore (E.update_stale obj ~budget:2 Cs.Increment)
        | 2 | 3 -> ignore (E.update_stale obj ~budget:64 Cs.Increment)
        | _ -> ignore (E.update obj Cs.Increment)
      done
    in
    check Alcotest.bool "the run completes" true
      (Sim.run sim strategy [| proc 0; proc 1 |] = Sched.World.Completed);
    audit ();
    check Alcotest.int "every update applied" 24 (E.read obj Cs.Get)
  done

(* Park p0 inside a relaxed update once it made its first shared write;
   p1 must still complete 2k stale updates and a strict one. A lock held
   across the update starves p1 here. *)
let test_parked_update_starves_nobody () =
  let k = 4 in
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Cs) in
  let o =
    B.build
      { Onll_stack.plain with top = Direct (Relaxed (`Plain, k)) }
      default
  in
  let r = Option.get o.B.relaxed in
  let done1 = ref false in
  let strategy =
    Sched.Strategy.script
      ~fallback:(fun _ -> Sched.Strategy.Stop "p0 parked")
      [ Sched.Strategy.Run_steps (0, 3); Sched.Strategy.Run_to_completion 1 ]
  in
  (match
     Sim.run ~max_steps:100_000 sim strategy
       [|
         (fun _ -> ignore (o.B.update Cs.Increment));
         (fun _ ->
           for _ = 1 to 2 * k do
             ignore (r.B.update_stale ~budget:k Cs.Increment)
           done;
           ignore (r.B.update_strict Cs.Increment);
           done1 := true);
       |]
   with
  | _ -> ()
  | exception Sched.Stuck _ -> Alcotest.fail "p1 starved behind parked p0");
  check Alcotest.bool "p1 completed" true !done1

(* A drain marks nodes durable only after its fence: a strict update that
   runs at any step of a concurrent drain, then a crash, loses nothing
   acknowledged strictly. *)
let test_strict_ack_survives_a_concurrent_drain () =
  for steps = 1 to 120 do
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module R = Relaxed (M) in
    let (obj, _) as r = R.make ~k:4 in
    let strict = ref None in
    ignore
      (Sim.run sim
         (Sched.Strategy.script
            [
              Sched.Strategy.Run_steps (0, steps);
              Sched.Strategy.Run_to_completion 1;
              Sched.Strategy.Crash_here;
            ])
         [|
           (fun _ ->
             (* three deferred acks, then the drain at depth k *)
             for _ = 1 to 4 do
               ignore (R.stale r Cs.Increment)
             done);
           (fun _ -> strict := Some (fst (R.update_with_id obj Cs.Increment)));
         |]
        : Sched.World.outcome);
    let rep = R.recover_report obj in
    check Alcotest.bool "clean" true (Report.clean rep);
    match !strict with
    | Some id when not (R.was_linearized obj id) ->
        Alcotest.failf "p0 ran %d steps: the strict ack was lost" steps
    | _ -> ()
  done

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
          Alcotest.test_case "an escaping fault leaves the object usable"
            `Quick test_escaping_fault_leaves_the_object_usable;
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
      ( "lock freedom",
        [
          Alcotest.test_case "window rule: plain" `Quick
            (window_rule (module Plain));
          Alcotest.test_case "window rule: wait-free" `Quick
            (window_rule (module Wait_free));
          Alcotest.test_case "window rule: batched" `Quick
            (window_rule (module Batched));
          Alcotest.test_case "a parked stale update starves nobody" `Quick
            test_parked_update_starves_nobody;
          Alcotest.test_case "a strict ack survives a concurrent drain"
            `Quick test_strict_ack_survives_a_concurrent_drain;
        ] );
    ]
