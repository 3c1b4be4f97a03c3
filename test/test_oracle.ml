(** End-to-end validation of the durable-linearizability oracle against a
    {e deliberately broken} implementation
    ({!Onll_baselines.Linearize_early}, [Return]): the §3.1 case analysis
    says that if an update is linearized before it is persisted and readers
    neither wait nor help, a reader can observe an update that a crash then
    erases. The oracle must catch exactly that —
    and must accept the same schedule when the object is real ONLL. *)

open Onll_machine
open Onll_sched
module Cs = Onll_specs.Counter
module H = Onll_histcheck.Histcheck.Make (Onll_specs.Counter)

let check = Alcotest.check

(* The §3.1 bad window, scripted:
   p0: update parked after linearization (insert done) but before its log
   append's fence; p1: read — observes the update and responds; crash
   (drop-all); recovery; a post-crash read records what survived. *)

let drive_scenario ~update ~read ~recover =
  let recorder = H.Recorder.create () in
  let p0 _ =
    let uid = H.Recorder.invoke recorder ~proc:0 (H.Update Cs.Increment) in
    let v = update () in
    H.Recorder.return_ recorder uid v
  in
  let p1 _ =
    let uid = H.Recorder.invoke recorder ~proc:1 (H.Read Cs.Get) in
    let v = read () in
    H.Recorder.return_ recorder uid v
  in
  (recorder, p0, p1,
   fun sim ->
     let script =
       Sched.Strategy.script
         [
           Sched.Strategy.run_until_pfence 0;  (* linearized, unpersisted *)
           Sched.Strategy.Run_to_completion 1;  (* the reader responds *)
           Sched.Strategy.Crash_here;
         ]
     in
     let outcome = Sim.run sim script [| p0; p1 |] in
     assert (outcome = Sched.World.Crashed);
     H.Recorder.crash recorder;
     recover ();
     (* post-crash observation *)
     let uid = H.Recorder.invoke recorder ~proc:0 (H.Read Cs.Get) in
     let v = read () in
     H.Recorder.return_ recorder uid v;
     H.Recorder.history recorder)

let test_broken_implementation_rejected () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_baselines.Linearize_early.Make (M) (Cs) in
  let obj = B.create Onll_baselines.Linearize_early.Return in
  let _, _, _, go =
    drive_scenario
      ~update:(fun () -> B.update obj Cs.Increment)
      ~read:(fun () -> B.read obj Cs.Get)
      ~recover:(fun () -> B.recover obj)
  in
  let history = go sim in
  (* Sanity: the bad window really occurred — the reader saw 1, recovery
     lost it. *)
  let returns =
    List.filter_map
      (function H.Return { value; _ } -> Some value | _ -> None)
      history
  in
  check Alcotest.(list int) "reader saw 1; post-crash sees 0" [ 1; 0 ] returns;
  match H.check history with
  | H.Violation _ -> ()
  | H.Durably_linearizable _ ->
      Alcotest.fail "oracle accepted a durability violation"
  | H.Budget_exhausted -> Alcotest.fail "oracle ran out of budget"

let test_real_onll_accepted_same_schedule () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let _, _, _, go =
    drive_scenario
      ~update:(fun () -> C.update obj Cs.Increment)
      ~read:(fun () -> C.read obj Cs.Get)
      ~recover:(fun () -> C.recover obj)
  in
  let history = go sim in
  (* With ONLL the parked update is simply not yet visible: the reader sees
     0 and recovery owes nothing. *)
  let returns =
    List.filter_map
      (function H.Return { value; _ } -> Some value | _ -> None)
      history
  in
  check Alcotest.(list int) "reader sees 0; post-crash sees 0" [ 0; 0 ]
    returns;
  match H.check history with
  | H.Durably_linearizable _ -> ()
  | H.Violation msg -> Alcotest.fail ("oracle rejected correct ONLL: " ^ msg)
  | H.Budget_exhausted -> Alcotest.fail "oracle ran out of budget"

let test_persist_on_read_accepted_same_schedule () =
  (* The third §3.1 branch: the reader helps. It sees 1 — and because it
     fenced before responding, the update survives the crash. *)
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_baselines.Linearize_early.Make (M) (Cs) in
  let obj = P.create Onll_baselines.Linearize_early.Help in
  let _, _, _, go =
    drive_scenario
      ~update:(fun () -> P.update obj Cs.Increment)
      ~read:(fun () -> P.read obj Cs.Get)
      ~recover:(fun () -> P.recover obj)
  in
  let history = go sim in
  let returns =
    List.filter_map
      (function H.Return { value; _ } -> Some value | _ -> None)
      history
  in
  check Alcotest.(list int) "reader sees 1; post-crash still 1" [ 1; 1 ]
    returns;
  match H.check history with
  | H.Durably_linearizable _ -> ()
  | H.Violation msg ->
      Alcotest.fail ("oracle rejected persist-on-read: " ^ msg)
  | H.Budget_exhausted -> Alcotest.fail "oracle ran out of budget"

let test_broken_fuzz_campaign_finds_violations () =
  (* Under random schedules with random crash points, fuzzing the broken
     implementation must surface at least one violation — the oracle has
     teeth, not just on the hand-crafted schedule. *)
  let violations = ref 0 in
  for seed = 1 to 60 do
    let sim = Sim.create ~max_processes:3 () in
    let module M = (val Sim.machine sim) in
    let module B = Onll_baselines.Linearize_early.Make (M) (Cs) in
    let obj = B.create Onll_baselines.Linearize_early.Return in
    let recorder = H.Recorder.create () in
    let proc p _ =
      for k = 1 to 3 do
        if k mod 2 = 0 then begin
          let uid = H.Recorder.invoke recorder ~proc:p (H.Read Cs.Get) in
          let v = B.read obj Cs.Get in
          H.Recorder.return_ recorder uid v
        end
        else begin
          let uid =
            H.Recorder.invoke recorder ~proc:p (H.Update Cs.Increment)
          in
          let v = B.update obj Cs.Increment in
          H.Recorder.return_ recorder uid v
        end
      done
    in
    let outcome =
      Sim.run sim
        (Sched.Strategy.random_with_crash ~seed
           ~crash_at_step:(10 + (seed * 7 mod 60)))
        (Array.init 3 (fun p -> proc p))
    in
    if outcome = Sched.World.Crashed then begin
      H.Recorder.crash recorder;
      B.recover obj;
      let uid = H.Recorder.invoke recorder ~proc:0 (H.Read Cs.Get) in
      let v = B.read obj Cs.Get in
      H.Recorder.return_ recorder uid v;
      match H.check (H.Recorder.history recorder) with
      | H.Violation _ -> incr violations
      | H.Durably_linearizable _ | H.Budget_exhausted -> ()
    end
  done;
  check Alcotest.bool
    (Printf.sprintf "fuzz found %d violations" !violations)
    true (!violations > 0)

let test_rationale_verdicts () =
  let module R = Onll_scenarios.Rationale in
  match R.run_all () with
  | [ b1; b2; b3; escape ] ->
      check Alcotest.bool "branch 1 violates durability" true
        (String.length b1.R.b_verdict > 0
        && String.sub b1.R.b_verdict 0 10 = "DURABILITY");
      check Alcotest.bool "branch 2 livelocks" true
        (String.sub b2.R.b_verdict 0 8 = "LIVELOCK");
      check Alcotest.bool "branch 3 consistent" true
        (String.sub b3.R.b_verdict 0 10 = "consistent");
      check Alcotest.bool "branch 3 reader saw the update" true
        (b3.R.b_reader_saw = Some 1 && b3.R.b_recovered = 1);
      check Alcotest.bool "onll consistent" true
        (String.sub escape.R.b_verdict 0 10 = "consistent");
      check Alcotest.bool "onll reader saw the old state" true
        (escape.R.b_reader_saw = Some 0 && escape.R.b_recovered = 0)
  | _ -> Alcotest.fail "expected four branches"

let () =
  Alcotest.run "oracle"
    [
      ( "section-3.1",
        [
          Alcotest.test_case "broken implementation rejected" `Quick
            test_broken_implementation_rejected;
          Alcotest.test_case "real onll accepted" `Quick
            test_real_onll_accepted_same_schedule;
          Alcotest.test_case "persist-on-read accepted" `Quick
            test_persist_on_read_accepted_same_schedule;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "campaign finds violations" `Quick
            test_broken_fuzz_campaign_finds_violations;
        ] );
      ( "rationale",
        [
          Alcotest.test_case "all four verdicts" `Quick
            test_rationale_verdicts;
        ] );
    ]
