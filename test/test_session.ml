(* Deterministic unit tests for the durable client session (E15's
   protocol layer): exactly-once crash resolution on both branches,
   deterministic Timeout and Overloaded, sequence durability across the
   session log's own compaction, degradation policies, and misuse. The
   randomized/adversarial coverage lives in the E15 chaos campaign
   ([test_support/session_chaos.ml]); these are the pinned, single-world
   specimens of each contract clause. *)

open Onll_machine
module Cs = Onll_specs.Counter
module Faults = Onll_faults.Faults
module Sess_t = Onll_session

let check = Alcotest.check

let run sim body =
  match Sim.run sim Onll_sched.Sched.Strategy.round_robin [| body |] with
  | Onll_sched.Sched.World.Completed -> ()
  | _ -> Alcotest.fail "simulated body did not complete"

(* A flush storm pinned to every region except [spare]: transient faults
   rage until removed ([max_consecutive_transients] far above any retry
   budget), so whatever durable step touches a targeted region times out
   deterministically. *)
let storm ?(spare = fun _ -> false) mem =
  Faults.install mem
    {
      Faults.Plan.none with
      seed = 7;
      flush_fail_prob = 1.0;
      max_consecutive_transients = 1_000_000;
      target = (fun n -> not (spare n));
    }

(* {1 Exactly-once: the Was_applied branch} *)

let test_was_applied () =
  (* A crash after the last update linearized but before its ack became
     durable: recovery must answer Was_applied and must NOT re-invoke. *)
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Cs) in
  let obj = B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink } in
  let module Sess = Onll_session.Make (M) (Cs) in
  let s = Sess.attach ~sink ~client:0 (B.backend obj) in
  run sim (fun _ ->
      for _ = 1 to 4 do
        match Sess.submit s Cs.Increment with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "submit: %a" Sess_t.pp_error e
      done);
  let seq_before = Sess.next_seq s in
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Persist_all;
  ignore (obj.B.recover_report ());
  run sim (fun _ ->
      (match Sess.recover s with
      | Sess.Was_applied id ->
          check Alcotest.int "the in-doubt op is the last submitted one"
            (seq_before - 1) id.Onll_core.Onll.id_seq
      | r -> Alcotest.failf "expected Was_applied, got %a" Sess.pp_resolution r);
      check Alcotest.int "not re-invoked: the counter is unchanged" 4
        (Sess.read s Cs.Get);
      (* idempotence: an immediate second recovery resolves nothing new *)
      (match Sess.recover s with
      | Sess.No_pending | Sess.Was_applied _ -> ()
      | r -> Alcotest.failf "second recover: %a" Sess.pp_resolution r);
      (* the session keeps working, sequence numbers never reused *)
      (match Sess.submit s Cs.Increment with
      | Ok v -> check Alcotest.int "post-recovery submit applies once" 5 v
      | Error e -> Alcotest.failf "post-recovery submit: %a" Sess_t.pp_error e);
      check Alcotest.bool "next_seq advanced past every pre-crash seq" true
        (Sess.next_seq s > seq_before))

(* {1 Exactly-once: the Reinvoked branch} *)

let test_reinvoked () =
  (* A flush storm pinned to the object's regions (the client record
     stays writable): the intent becomes durable, the object is never
     reached, the submission times out in doubt — and after a Drop_all
     restart, recovery must re-invoke under a fresh identity, exactly
     once. *)
  let sink = Onll_obs.Sink.make () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Cs) in
  let obj = B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink } in
  let module Sess = Onll_session.Make (M) (Cs) in
  let s = Sess.attach ~sink ~client:0 (B.backend obj) in
  run sim (fun _ ->
      for _ = 1 to 2 do
        match Sess.submit s Cs.Increment with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "submit: %a" Sess_t.pp_error e
      done);
  let h = storm ~spare:(fun n -> n = Sess.log_name s) mem in
  run sim (fun _ ->
      match Sess.submit s Cs.Increment with
      | Error Sess_t.Timeout ->
          check Alcotest.bool "the timed-out op is pending (in doubt)" true
            (Sess.pending s <> None)
      | Ok _ -> Alcotest.fail "the storm never bit"
      | Error e -> Alcotest.failf "expected Timeout, got %a" Sess_t.pp_error e);
  Faults.remove h;
  (* Drop_all: the storm-blocked object record was never fenced, so the
     restart discards it — the fenced intent survives. *)
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Drop_all;
  ignore (obj.B.recover_report ());
  run sim (fun _ ->
      (match Sess.recover s with
      | Sess.Reinvoked (old_id, fresh, v) ->
          check Alcotest.bool "fresh identity, same process" true
            (old_id.Onll_core.Onll.id_proc = fresh.Onll_core.Onll.id_proc
            && fresh.Onll_core.Onll.id_seq > old_id.Onll_core.Onll.id_seq);
          check Alcotest.int "re-invocation applied the op once" 3 v
      | r -> Alcotest.failf "expected Reinvoked, got %a" Sess.pp_resolution r);
      check Alcotest.int "exactly once across the crash" 3 (Sess.read s Cs.Get))

(* {1 Deterministic Timeout + misuse: submit over an unresolved pending} *)

let test_timeout_then_submit_raises () =
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Cs) in
  let obj = B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink } in
  let module Sess = Onll_session.Make (M) (Cs) in
  let s = Sess.attach ~sink ~client:0 (B.backend obj) in
  let h = storm mem in
  run sim (fun _ ->
      (match Sess.submit s Cs.Increment with
      | Error Sess_t.Timeout -> ()
      | Ok _ -> Alcotest.fail "a total flush storm let a submission through"
      | Error e -> Alcotest.failf "expected Timeout, got %a" Sess_t.pp_error e);
      check Alcotest.bool "the deadline was reached through retries" true
        (Onll_obs.Metrics.counter_value registry "session.retries" > 0);
      (* the operation is unresolved; submitting over it is misuse *)
      match Sess.submit s Cs.Increment with
      | exception Invalid_argument _ -> ()
      | Ok _ | Error _ ->
          Alcotest.fail "submit over an unresolved pending did not raise");
  Faults.remove h

(* {1 Deterministic Overloaded} *)

let test_overloaded () =
  (* Admission control: a watermark below any live history sheds the next
     submission, after one compaction that cannot help. Client 0
     (default watermark) seeds one update; client 1, against an
     impossible watermark, compacts once, is refused without the counter
     moving, and on its second refusal does not compact again: nothing
     grew since the compaction that could not help. *)
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Cs) in
  let obj = B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink } in
  let module Sess = Onll_session.Make (M) (Cs) in
  let backend = B.backend obj in
  let s0 = Sess.attach ~sink ~client:0 backend in
  let shed_cfg = { Onll_session.default_config with high_watermark = 1e-9 } in
  let s1 = Sess.attach ~config:shed_cfg ~sink ~client:1 backend in
  let checkpoints () = Onll_obs.Metrics.counter_value registry "checkpoints" in
  let shed () =
    match Sess.submit s1 Cs.Increment with
    | Error Sess_t.Overloaded ->
        check Alcotest.bool "pressure sample exceeded the watermark" true
          (Sess.pressure s1 > shed_cfg.Onll_session.high_watermark)
    | Ok _ -> Alcotest.fail "an impossible watermark admitted a write"
    | Error e -> Alcotest.failf "expected Overloaded, got %a" Sess_t.pp_error e
  in
  let outcome =
    Sim.run sim Onll_sched.Sched.Strategy.round_robin
      [|
        (fun _ ->
          match Sess.submit s0 Cs.Increment with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "seed submit: %a" Sess_t.pp_error e);
        (fun _ ->
          (* yield until client 0's update is live, then get shed *)
          let tries = ref 0 in
          while Sess.read s1 Cs.Get = 0 && !tries < 10_000 do
            incr tries
          done;
          check Alcotest.bool "client 0's update is live" true
            (Sess.read s1 Cs.Get = 1);
          let c0 = checkpoints () in
          shed ();
          check Alcotest.int "the first shed compacted once" (c0 + 1)
            (checkpoints ());
          shed ();
          check Alcotest.int "the second shed did not compact again" (c0 + 1)
            (checkpoints ()));
      |]
  in
  check Alcotest.bool "completed" true
    (outcome = Onll_sched.Sched.World.Completed);
  check Alcotest.int "shed with no durable work for the op: value unchanged"
    1 (obj.B.read Cs.Get);
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
  let module B = Onll_stack.Make (M) (Cs) in
  let obj =
    B.build Onll_stack.plain
      { Onll_core.Onll.Config.default with sink; log_capacity = 4096 }
  in
  let module Sess = Onll_session.Make (M) (Cs) in
  let s = Sess.attach ~sink ~client:0 (B.backend obj) in
  let n = 600 in
  run sim (fun _ ->
      for _ = 1 to n do
        match Sess.submit s Cs.Increment with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "submit: %a" Sess_t.pp_error e
      done);
  check Alcotest.int "every submit applied once" n (obj.B.read Cs.Get);
  check Alcotest.int "nothing shed" 0
    (Onll_obs.Metrics.counter_value registry "session.sheds");
  check Alcotest.bool "admission compacted" true
    (Onll_obs.Metrics.counter_value registry "checkpoints" > 0);
  check Alcotest.bool "the fill stays below the watermark" true
    (obj.B.log_fill () < Onll_session.default_config.high_watermark)

(* {1 Admission sampling loads nothing durable} *)

let test_admission_loads_nothing () =
  let sim = Sim.create ~max_processes:1 () in
  let module M0 = (val Sim.machine sim) in
  let module M = Test_support.Machine_wrap.Counting_loads (M0) in
  let module B = Onll_stack.Make (M) (Cs) in
  let obj = B.build Onll_stack.plain Onll_core.Onll.Config.default in
  let module Sess = Onll_session.Make (M) (Cs) in
  let s = Sess.attach ~client:0 (B.backend obj) in
  for _ = 1 to 200 do
    match Sess.submit s Cs.Increment with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "submit: %a" Sess_t.pp_error e
  done;
  let before = !M.loads in
  for _ = 1 to 1000 do
    check Alcotest.bool "admitted" true (Sess.admit s)
  done;
  check Alcotest.int "1000 admission samples, 0 durable loads" 0
    (!M.loads - before);
  check Alcotest.bool "the sample is the object's fill" true
    (Sess.pressure s = obj.B.log_fill () && Sess.pressure s > 0.)

(* {1 Sequence durability across session-log compaction} *)

let test_seq_across_compaction () =
  (* A session log too small for the workload forces the summary-first
     compaction mid-run; sequence numbers must keep ascending across both
     the compactions and a crash-restart over the compacted log. *)
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Cs) in
  let obj = B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink } in
  let module Sess = Onll_session.Make (M) (Cs) in
  let cfg = { Onll_session.default_config with log_capacity = 640 } in
  let s = Sess.attach ~config:cfg ~sink ~client:0 (B.backend obj) in
  let n = 40 in
  run sim (fun _ ->
      for _ = 1 to n do
        match Sess.submit s Cs.Increment with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "submit: %a" Sess_t.pp_error e
      done);
  check Alcotest.bool "the session log compacted at least once" true
    (Onll_obs.Metrics.counter_value registry "session.compactions" > 0);
  let seq_before = Sess.next_seq s in
  check Alcotest.int "sequence numbers stayed dense" n seq_before;
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Persist_all;
  ignore (obj.B.recover_report ());
  run sim (fun _ ->
      (match Sess.recover s with
      | Sess.No_pending | Sess.Was_applied _ -> ()
      | r -> Alcotest.failf "recover: %a" Sess.pp_resolution r);
      check Alcotest.bool
        "next_seq refolded from the compacted log, never reused" true
        (Sess.next_seq s >= seq_before);
      check Alcotest.int "no duplicates across the restart" n
        (Sess.read s Cs.Get))

(* {1 Degradation policies} *)

(* A backend whose sticky degraded flag the test controls: the real
   counter backend with [b_degraded] swapped for a ref — the record of
   closures exists exactly so policy logic is testable against a
   synthetic flag without manufacturing real unrepairable media loss. *)
let test_degradation_fail_writes_and_best_effort () =
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Cs) in
  let obj = B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink } in
  let module Sess = Onll_session.Make (M) (Cs) in
  let degraded = ref false in
  let backend =
    { (B.backend obj) with Sess.b_degraded = (fun () -> !degraded) }
  in
  (* client 0: Fail_writes (the default); client 1: Best_effort *)
  let s0 = Sess.attach ~sink ~client:0 backend in
  let be_cfg =
    { Onll_session.default_config with degradation = Sess_t.Best_effort }
  in
  let s1 = Sess.attach ~config:be_cfg ~sink ~client:1 backend in
  run sim (fun _ ->
      (match Sess.submit s0 Cs.Increment with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "healthy submit: %a" Sess_t.pp_error e);
      degraded := true;
      (match Sess.submit s0 Cs.Increment with
      | Error Sess_t.Degraded -> ()
      | Ok _ -> Alcotest.fail "Fail_writes accepted a degraded write"
      | Error e ->
          Alcotest.failf "expected Degraded, got %a" Sess_t.pp_error e);
      check Alcotest.int "reads are served under every policy" 1
        (Sess.read s0 Cs.Get);
      check Alcotest.bool "degraded reads are counted" true
        (Onll_obs.Metrics.counter_value registry "session.degraded_reads" > 0));
  (match
     Sim.run sim Onll_sched.Sched.Strategy.round_robin
       [|
         (fun _ -> ());
         (fun _ ->
           match Sess.submit s1 Cs.Increment with
           | Ok v ->
               check Alcotest.int "Best_effort keeps writing" 2 v;
               check Alcotest.bool "and counts it" true
                 (Onll_obs.Metrics.counter_value registry
                    "session.degraded_writes"
                 > 0)
           | Error e ->
               Alcotest.failf "Best_effort refused: %a" Sess_t.pp_error e);
       |]
   with
  | Onll_sched.Sched.World.Completed -> ()
  | _ -> Alcotest.fail "second era did not complete")

let test_degradation_read_only_refuses_reinvocation () =
  (* Read_only is the strictest policy: even the promised re-invocation
     of the in-doubt operation is withheld (Refused), and the operation
     stays pending for a later policy to resolve. *)
  let sink = Onll_obs.Sink.make () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Cs) in
  let obj = B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink } in
  let module Sess = Onll_session.Make (M) (Cs) in
  let degraded = ref false in
  let backend =
    { (B.backend obj) with Sess.b_degraded = (fun () -> !degraded) }
  in
  let ro_cfg =
    { Onll_session.default_config with degradation = Sess_t.Read_only }
  in
  let s = Sess.attach ~config:ro_cfg ~sink ~client:0 backend in
  let h = storm ~spare:(fun n -> n = Sess.log_name s) mem in
  run sim (fun _ ->
      match Sess.submit s Cs.Increment with
      | Error Sess_t.Timeout -> ()
      | Ok _ -> Alcotest.fail "the storm never bit"
      | Error e -> Alcotest.failf "expected Timeout, got %a" Sess_t.pp_error e);
  Faults.remove h;
  degraded := true;
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Drop_all;
  ignore (obj.B.recover_report ());
  run sim (fun _ ->
      (match Sess.recover s with
      | Sess.Refused _ -> ()
      | r -> Alcotest.failf "expected Refused, got %a" Sess.pp_resolution r);
      check Alcotest.bool "the operation stays pending" true
        (Sess.pending s <> None);
      check Alcotest.int "no write of any kind happened" 0
        (Sess.read s Cs.Get))

(* {1 Backoff jitter: deterministic under a pinned rng_seed} *)

(* One world: a bounded transient storm long enough to punch through the
   persistent log's own retry budget (8), so the escaping transient
   reaches the session's jittered backoff — then relents, so every
   submission eventually lands. Returns the whole observable outcome:
   retry count, session fences, final value, cursors. *)
let jitter_world ~rng_seed =
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Cs) in
  let obj = B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink } in
  let module Sess = Onll_session.Make (M) (Cs) in
  let config =
    { Sess_t.default_config with rng_seed; max_attempts = 64; deadline = 0 }
  in
  let s = Sess.attach ~config ~sink ~client:0 (B.backend obj) in
  (* storm only the session's own log: every intent/ack append punches
     through the plog budget once (9 failures), backs off with jitter,
     and lands on the retry — the object itself stays clean, so every
     submission terminates *)
  let h =
    Faults.install mem
      {
        Faults.Plan.none with
        seed = 11;
        flush_fail_prob = 1.0;
        max_consecutive_transients = 12;
        target = (fun n -> n = Sess.log_name s);
      }
  in
  run sim (fun _ ->
      for _ = 1 to 6 do
        match Sess.submit s Cs.Increment with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "storm exceeded the budget: %a"
                       Sess_t.pp_error e
      done);
  Faults.remove h;
  ( Onll_obs.Metrics.counter_value registry "session.retries",
    Onll_obs.Metrics.counter_value registry "fences.session",
    Sess.read s Cs.Get,
    Sess.next_seq s )

let test_jitter_deterministic () =
  let r1, f1, v1, n1 = jitter_world ~rng_seed:42 in
  let r2, f2, v2, n2 = jitter_world ~rng_seed:42 in
  check Alcotest.bool "the storm actually forced retries" true (r1 > 0);
  check Alcotest.int "same seed: identical retry count" r1 r2;
  check Alcotest.int "same seed: identical fence count" f1 f2;
  check Alcotest.int "same seed: identical value" v1 v2;
  check Alcotest.int "same seed: identical cursor" n1 n2;
  (* a different seed reshuffles the jitter, never the outcome *)
  let _, _, v3, n3 = jitter_world ~rng_seed:9001 in
  check Alcotest.int "different seed: same exactly-once value" v1 v3;
  check Alcotest.int "different seed: same cursor" n1 n3

(* {1 Misuse: a foreign process on an owned session} *)

let test_foreign_process_raises () =
  let sink = Onll_obs.Sink.make () in
  let sim = Sim.create ~sink ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Cs) in
  let obj = B.build Onll_stack.plain { Onll_core.Onll.Config.default with sink } in
  let module Sess = Onll_session.Make (M) (Cs) in
  let s = Sess.attach ~sink ~client:0 (B.backend obj) in
  match
    Sim.run sim Onll_sched.Sched.Strategy.round_robin
      [|
        (fun _ -> ());
        (fun _ ->
          (match Sess.submit s Cs.Increment with
          | exception Invalid_argument _ -> ()
          | Ok _ | Error _ ->
              Alcotest.fail "a foreign process drove client 0's session");
          match Sess.recover s with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "a foreign process recovered client 0's session");
      |]
  with
  | Onll_sched.Sched.World.Completed -> ()
  | _ -> Alcotest.fail "did not complete"

let () =
  Alcotest.run "session"
    [
      ( "exactly-once",
        [
          Alcotest.test_case "crash resolves Was_applied, no re-invoke" `Quick
            test_was_applied;
          Alcotest.test_case "crash resolves Reinvoked, fresh identity" `Quick
            test_reinvoked;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deterministic Timeout + pending misuse" `Quick
            test_timeout_then_submit_raises;
          Alcotest.test_case "deterministic Overloaded shed" `Quick
            test_overloaded;
          Alcotest.test_case "admission compacts before it sheds" `Quick
            test_compacts_before_shedding;
          Alcotest.test_case "admission sampling loads nothing durable" `Quick
            test_admission_loads_nothing;
          Alcotest.test_case "backoff jitter pinned by rng_seed" `Quick
            test_jitter_deterministic;
        ] );
      ( "durability",
        [
          Alcotest.test_case "seqs survive session-log compaction + crash"
            `Quick test_seq_across_compaction;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "Fail_writes refuses, Best_effort counts" `Quick
            test_degradation_fail_writes_and_best_effort;
          Alcotest.test_case "Read_only withholds re-invocation" `Quick
            test_degradation_read_only_refuses_reinvocation;
        ] );
      ( "misuse",
        [
          Alcotest.test_case "foreign process raises" `Quick
            test_foreign_process_raises;
        ] );
    ]
