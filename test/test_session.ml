(* Deterministic unit tests for the exactly-once client session (E15's
   protocol layer): a crash's outcome read from the client table on both
   branches, an in-doubt submission resubmitted in place, admission
   control, and the degraded refusal. The randomized coverage lives in
   the E15 chaos campaign ([test_support/session_chaos.ml]); these are
   the pinned, single-world specimens of each contract clause. *)

open Onll_machine
module Cs = Onll_specs.Counter
module Ct = Onll_core.Client_table.Make (Cs)
module Sess = Onll_session.Make (Cs)
module Faults = Onll_faults.Faults

let check = Alcotest.check

(* The watermark `onll serve` admits at. *)
let watermark = 0.85

let run sim body =
  match Sim.run sim Onll_sched.Sched.Strategy.round_robin [| body |] with
  | Onll_sched.Sched.World.Completed -> ()
  | _ -> Alcotest.fail "simulated body did not complete"

(* A flush storm on every region: transient faults rage until removed
   ([max_consecutive_transients] far above any retry budget), so an
   update's append escapes with the fault. *)
let storm mem =
  Faults.install mem
    {
      Faults.Plan.none with
      seed = 7;
      flush_fail_prob = 1.0;
      max_consecutive_transients = 1_000_000;
    }

let answer =
  Alcotest.testable
    (fun ppf -> function
      | Ok (Sess.Applied v) -> Format.fprintf ppf "applied %d" v
      | Ok Sess.Duplicate -> Format.pp_print_string ppf "duplicate"
      | Error e -> Onll_session.pp_error ppf e)
    ( = )

(* {1 Exactly-once across a crash} *)

let test_crash_applied () =
  (* A crash after the last submission's fence, before its client saw the
     ack: the re-attached cursor is past it, and its resubmission under
     the same seq answers Duplicate without a second apply. *)
  let sink = Onll_obs.Sink.make () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Ct) in
  let obj =
    B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink }
  in
  let admission = Onll_core.Admission.create ~watermark in
  let s = Sess.attach ~sink ~admission ~client:0 (B.backend obj) in
  run sim (fun _ ->
      for k = 1 to 4 do
        check answer "submit" (Ok (Sess.Applied k))
          (Sess.submit s Cs.Increment)
      done);
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Persist_all;
  ignore (obj.B.recover_report ());
  run sim (fun _ ->
      let s = Sess.attach ~sink ~admission ~client:0 (B.backend obj) in
      check Alcotest.int "the table shows seq 3 applied" 4 (Sess.next_seq s);
      check answer "its resubmission is a duplicate" (Ok Sess.Duplicate)
        (Sess.submit ~seq:3 s Cs.Increment);
      check Alcotest.int "not applied again" 4 (Sess.read s Cs.Get);
      check answer "the next op applies once" (Ok (Sess.Applied 5))
        (Sess.submit s Cs.Increment);
      check answer "an older seq is a duplicate too" (Ok Sess.Duplicate)
        (Sess.submit ~seq:3 s Cs.Increment);
      check Alcotest.int "and leaves the cursor past the newest" 5
        (Sess.next_seq s))

let test_crash_lost () =
  (* A storm keeps a submission from persisting: it is in doubt, and a
     Drop_all crash loses it. The re-attached cursor still names its seq,
     and its resubmission applies it once. *)
  let sink = Onll_obs.Sink.make () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Ct) in
  let obj =
    B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink }
  in
  let admission = Onll_core.Admission.create ~watermark in
  let s = Sess.attach ~sink ~admission ~client:0 (B.backend obj) in
  run sim (fun _ ->
      for k = 1 to 2 do
        check answer "submit" (Ok (Sess.Applied k))
          (Sess.submit s Cs.Increment)
      done);
  let h = storm mem in
  run sim (fun _ ->
      check answer "the storm leaves the op in doubt"
        (Error Onll_session.In_doubt) (Sess.submit s Cs.Increment);
      check Alcotest.int "the cursor stays on its seq" 2 (Sess.next_seq s));
  Faults.remove h;
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Drop_all;
  ignore (obj.B.recover_report ());
  run sim (fun _ ->
      let s = Sess.attach ~sink ~admission ~client:0 (B.backend obj) in
      check Alcotest.int "the table shows seq 2 absent" 2 (Sess.next_seq s);
      check answer "its resubmission applies it once" (Ok (Sess.Applied 3))
        (Sess.submit ~seq:2 s Cs.Increment);
      check Alcotest.int "exactly once across the crash" 3 (Sess.read s Cs.Get))

(* {1 An in-doubt submission resubmitted in place} *)

let test_in_doubt_resubmit () =
  (* The storm fails the submission after it was ordered: the op is in
     the trace, not yet durable. Resubmitted under the same seq once the
     storm ends, it answers Duplicate, and that update's fence makes the
     first try durable: it survives a Drop_all crash, once. A seq past
     the cursor is refused. *)
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Ct) in
  let obj =
    B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink }
  in
  let admission = Onll_core.Admission.create ~watermark in
  let s = Sess.attach ~sink ~admission ~client:0 (B.backend obj) in
  let h = storm mem in
  run sim (fun _ ->
      check answer "in doubt" (Error Onll_session.In_doubt)
        (Sess.submit s Cs.Increment));
  Faults.remove h;
  run sim (fun _ ->
      (match Sess.submit ~seq:1 s Cs.Increment with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "a seq past the cursor was submitted");
      check answer "the resubmission finds the first try applied"
        (Ok Sess.Duplicate) (Sess.submit s Cs.Increment);
      check Alcotest.int "the cursor moved past it" 1 (Sess.next_seq s));
  check Alcotest.int "one in-doubt and one duplicate outcome" 2
    (Onll_obs.Metrics.counter_value registry "session.in_doubt"
    + Onll_obs.Metrics.counter_value registry "session.duplicates");
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Drop_all;
  ignore (obj.B.recover_report ());
  run sim (fun _ ->
      let s = Sess.attach ~sink ~admission ~client:0 (B.backend obj) in
      check Alcotest.int "the op survives, once" 1 (Sess.read s Cs.Get);
      check Alcotest.int "the table agrees" 1 (Sess.next_seq s))

(* {1 Deterministic Overloaded} *)

let test_overloaded () =
  (* Admission control: a watermark below any live history sheds the next
     submission, after one compaction that cannot help. Admission is the
     object's, shared by its sessions: once client 1's shed found that
     compaction cannot help, client 2's shed does not compact again,
     since nothing grew in between. *)
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Ct) in
  let obj =
    B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink }
  in
  let backend = B.backend obj in
  let admission = Onll_core.Admission.create ~watermark:1e-9 in
  let checkpoints () = Onll_obs.Metrics.counter_value registry "checkpoints" in
  let shed s =
    match Sess.submit s Cs.Increment with
    | Error Onll_session.Overloaded ->
        check Alcotest.bool "pressure sample exceeded the watermark" true
          (Onll_core.Admission.last admission > 1e-9)
    | Ok _ -> Alcotest.fail "an impossible watermark admitted a write"
    | Error e ->
        Alcotest.failf "expected Overloaded, got %a" Onll_session.pp_error e
  in
  run sim (fun _ ->
      (* one live update, written past admission *)
      ignore (backend.b_update (Ct.Untracked Cs.Increment) : Ct.value);
      let s1 = Sess.attach ~sink ~admission ~client:1 backend in
      let s2 = Sess.attach ~sink ~admission ~client:2 backend in
      let c0 = checkpoints () in
      shed s1;
      check Alcotest.int "the first shed compacted once" (c0 + 1)
        (checkpoints ());
      shed s2;
      check Alcotest.int "the second shed did not compact again" (c0 + 1)
        (checkpoints ());
      check Alcotest.int
        "shed with no durable work for the op: value unchanged" 1
        (Sess.read s1 Cs.Get));
  check Alcotest.int "both sheds were counted" 2
    (Onll_obs.Metrics.counter_value registry "session.sheds")

(* {1 Admission compacts before it sheds} *)

let test_compacts_before_shedding () =
  (* Far more updates than the object's small log holds: every time the
     fill reaches the watermark, admission compacts and admits. Nothing
     is shed and the counter equals the acks. *)
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Ct) in
  let obj =
    B.build Onll_stack.plain
      { Onll_core.Onll.Config.default with sink; log_capacity = 4096 }
  in
  let admission = Onll_core.Admission.create ~watermark in
  let s = Sess.attach ~sink ~admission ~client:0 (B.backend obj) in
  let n = 600 in
  run sim (fun _ ->
      for _ = 1 to n do
        match Sess.submit s Cs.Increment with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "submit: %a" Onll_session.pp_error e
      done);
  check Alcotest.int "every submit applied once" n (Sess.read s Cs.Get);
  check Alcotest.int "nothing shed" 0
    (Onll_obs.Metrics.counter_value registry "session.sheds");
  check Alcotest.bool "admission compacted" true
    (Onll_obs.Metrics.counter_value registry "checkpoints" > 0);
  check Alcotest.bool "the fill stays below the watermark" true
    (obj.B.log_fill () < watermark)

(* {1 Admission sampling loads nothing durable} *)

let test_admission_loads_nothing () =
  let sim = Sim.create ~max_processes:1 () in
  let module M0 = (val Sim.machine sim) in
  let module M = Test_support.Machine_wrap.Counting_loads (M0) in
  let module B = Onll_stack.Make (M) (Ct) in
  let obj = B.build Onll_stack.plain Onll_core.Onll.Config.default in
  let admission = Onll_core.Admission.create ~watermark in
  let backend = B.backend obj in
  let s = Sess.attach ~admission ~client:0 backend in
  for _ = 1 to 200 do
    match Sess.submit s Cs.Increment with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "submit: %a" Onll_session.pp_error e
  done;
  let before = !M.loads in
  for _ = 1 to 1000 do
    check Alcotest.bool "admitted" true
      (Onll_core.Admission.admit admission ~fill:backend.b_pressure
         ~compact:backend.b_compact)
  done;
  check Alcotest.int "1000 admission samples, 0 durable loads" 0
    (!M.loads - before);
  let last = Onll_core.Admission.last admission in
  check Alcotest.bool "the sample is the object's fill" true
    (last = obj.B.log_fill () && last > 0.)

(* {1 Degraded media} *)

(* A backend whose sticky degraded flag the test controls: the real
   counter backend with [b_degraded] swapped for a ref — the record of
   closures exists exactly so that the refusal is testable without
   manufacturing real unrepairable media loss. *)
let test_degraded_refuses_writes () =
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Ct) in
  let obj =
    B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink }
  in
  let admission = Onll_core.Admission.create ~watermark in
  let degraded = ref false in
  let backend =
    { (B.backend obj) with Onll_session.b_degraded = (fun () -> !degraded) }
  in
  let s = Sess.attach ~sink ~admission ~client:0 backend in
  run sim (fun _ ->
      check answer "healthy submit" (Ok (Sess.Applied 1))
        (Sess.submit s Cs.Increment);
      degraded := true;
      check answer "a degraded object takes no write"
        (Error Onll_session.Degraded) (Sess.submit s Cs.Increment);
      check Alcotest.int "the cursor did not move" 1 (Sess.next_seq s);
      check Alcotest.int "reads are served" 1 (Sess.read s Cs.Get);
      check Alcotest.int "the refusal was counted" 1
        (Onll_obs.Metrics.counter_value registry "session.refused"))

(* {1 A fault that crosses the session boundary} *)

(* The backend's update raises [File_memory.Degraded] after the object
   applied the op, as a fence that exhausted its write-back budget does.
   The session does not catch it: it reaches the caller, and the cursor
   stays on the op's seq. Reads still answer, and once the backend's
   degraded flag is up the next submission is refused without reaching
   [b_update]. *)
let test_degraded_mid_submit () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Ct) in
  let obj = B.build Onll_stack.plain Onll_core.Onll.Config.default in
  let base = B.backend obj in
  let degraded = ref false and updates = ref 0 in
  let backend =
    {
      base with
      Onll_session.b_update =
        (fun u ->
          incr updates;
          let v = base.b_update u in
          if !updates = 2 then
            raise (Onll_nvm.File_memory.Degraded "write-back budget spent");
          v);
      b_degraded = (fun () -> !degraded);
    }
  in
  let admission = Onll_core.Admission.create ~watermark in
  let s = Sess.attach ~admission ~client:0 backend in
  run sim (fun _ ->
      check answer "healthy submit" (Ok (Sess.Applied 1))
        (Sess.submit s Cs.Increment);
      check Alcotest.bool "the fault reaches the caller" true
        (match Sess.submit s Cs.Increment with
        | exception Onll_nvm.File_memory.Degraded _ -> true
        | _ -> false);
      check Alcotest.int "the cursor stays on its seq" 1 (Sess.next_seq s);
      check Alcotest.int "reads still answer" 2 (Sess.read s Cs.Get);
      degraded := true;
      check answer "the degraded flag refuses the next write"
        (Error Onll_session.Degraded) (Sess.submit s Cs.Increment);
      check Alcotest.int "without calling the backend's update" 2 !updates)

let () =
  Alcotest.run "session"
    [
      ( "exactly-once",
        [
          Alcotest.test_case "crash: the table shows the op, resubmit dups"
            `Quick test_crash_applied;
          Alcotest.test_case "crash: the op is absent, resubmit applies it"
            `Quick test_crash_lost;
        ] );
      ( "faults",
        [
          Alcotest.test_case "in-doubt resubmission answers Duplicate" `Quick
            test_in_doubt_resubmit;
          Alcotest.test_case "deterministic Overloaded shed" `Quick
            test_overloaded;
          Alcotest.test_case "admission compacts before it sheds" `Quick
            test_compacts_before_shedding;
          Alcotest.test_case "admission sampling loads nothing durable" `Quick
            test_admission_loads_nothing;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "a degraded object refuses writes" `Quick
            test_degraded_refuses_writes;
          Alcotest.test_case "a degraded fault mid-submit reaches the caller"
            `Quick test_degraded_mid_submit;
        ] );
    ]
