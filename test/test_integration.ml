(** End-to-end crash-fuzz campaigns: randomized concurrent workloads with
    randomized crash points and crash policies, audited by the generic
    driver (durability of completed ops, precedence of the recovered order)
    and, for small histories, by the exhaustive durable-linearizability
    checker. Each campaign is deterministic from its seeds. *)

open Test_support

let check = Alcotest.check

module Fuzz_counter = Fuzz.Make (Onll_specs.Counter)
module Fuzz_queue = Fuzz.Make (Onll_specs.Queue_spec)
module Fuzz_kv = Fuzz.Make (Onll_specs.Kv)
module Fuzz_stack = Fuzz.Make (Onll_specs.Stack_spec)
module Fuzz_set = Fuzz.Make (Onll_specs.Set_spec)
module Fuzz_ledger = Fuzz.Make (Onll_specs.Ledger)
module Fuzz_register = Fuzz.Make (Onll_specs.Register)
module Fuzz_pqueue = Fuzz.Make (Onll_specs.Pqueue)
module Fuzz_deque = Fuzz.Make (Onll_specs.Deque)

let assert_clean name (r : Fuzz.result) =
  List.iter (fun f -> Alcotest.fail (name ^ ": " ^ f)) r.Fuzz.failures;
  if not r.Fuzz.verdict_ok then
    Alcotest.fail
      (name ^ ": checker verdict: " ^ Option.value ~default:"?" r.Fuzz.verdict)

let policies = Crash_world.policy_of_seed

(* {1 Crash-free campaigns: plain linearizability} *)

let run_crash_free run_fn gen_update gen_read name () =
  for seed = 1 to 30 do
    let plan =
      { Fuzz.default_plan with seed; n_procs = 3; ops_per_proc = 3 }
    in
    let r = run_fn ~plan ~gen_update ~gen_read () in
    check Alcotest.bool "did not crash" false r.Fuzz.crashed;
    assert_clean (Printf.sprintf "%s seed %d" name seed) r
  done

let test_crash_free_counter =
  run_crash_free Fuzz_counter.run Gen.Counter.update Gen.Counter.read "counter"

let test_crash_free_queue =
  run_crash_free Fuzz_queue.run Gen.Queue.update Gen.Queue.read "queue"

let test_crash_free_kv = run_crash_free Fuzz_kv.run Gen.Kv.update Gen.Kv.read "kv"

let test_crash_free_register =
  run_crash_free Fuzz_register.run Gen.Register.update Gen.Register.read
    "register"

(* {1 Crash campaigns} *)

let run_crashing run_fn gen_update gen_read name () =
  let crashes = ref 0 in
  for seed = 1 to 40 do
    let plan =
      {
        Fuzz.default_plan with
        seed;
        n_procs = 3;
        ops_per_proc = 3;
        crash_at = Some (10 + (seed * 7 mod 120));
        policy = policies seed;
      }
    in
    let r = run_fn ~plan ~gen_update ~gen_read () in
    if r.Fuzz.crashed then incr crashes;
    assert_clean (Printf.sprintf "%s seed %d" name seed) r
  done;
  check Alcotest.bool "campaign actually crashed runs" true (!crashes > 20)

let test_crashing_counter =
  run_crashing Fuzz_counter.run Gen.Counter.update Gen.Counter.read "counter"

let test_crashing_queue =
  run_crashing Fuzz_queue.run Gen.Queue.update Gen.Queue.read "queue"

let test_crashing_kv = run_crashing Fuzz_kv.run Gen.Kv.update Gen.Kv.read "kv"

let test_crashing_stack =
  run_crashing Fuzz_stack.run Gen.Stack.update Gen.Stack.read "stack"

let test_crashing_set =
  run_crashing Fuzz_set.run Gen.Set_g.update Gen.Set_g.read "set"

let test_crashing_ledger =
  run_crashing Fuzz_ledger.run Gen.Ledger.update Gen.Ledger.read "ledger"

let test_crashing_register =
  run_crashing Fuzz_register.run Gen.Register.update Gen.Register.read
    "register"

let test_crashing_pqueue =
  run_crashing Fuzz_pqueue.run Gen.Pqueue.update Gen.Pqueue.read "pqueue"

let test_crashing_deque =
  run_crashing Fuzz_deque.run Gen.Deque.update Gen.Deque.read "deque"

(* {1 Local views under fuzz}

   §8's read acceleration — one published state per trace node — across
   crashes, on the wait-free trace, whose folds start at the per-process
   cursors that recovery resets. *)

let test_crashing_counter_with_views () =
  for seed = 1 to 25 do
    let plan =
      {
        Fuzz.default_plan with
        seed;
        n_procs = 3;
        ops_per_proc = 3;
        crash_at = Some (15 + (seed * 11 mod 100));
        policy = policies seed;
        stack = { Onll_stack.plain with top = Direct (Bare `Wait_free) };
      }
    in
    let r =
      Fuzz_counter.run ~plan ~gen_update:Gen.Counter.update
        ~gen_read:Gen.Counter.read ()
    in
    assert_clean (Printf.sprintf "views seed %d" seed) r
  done

(* {1 PCT-scheduled campaigns} *)

let test_crashing_counter_pct () =
  for seed = 1 to 25 do
    let plan =
      {
        Fuzz.default_plan with
        seed;
        use_pct = true;
        crash_at = Some (12 + (seed * 13 mod 110));
        policy = policies seed;
      }
    in
    let r =
      Fuzz_counter.run ~plan ~gen_update:Gen.Counter.update
        ~gen_read:Gen.Counter.read ()
    in
    assert_clean (Printf.sprintf "pct seed %d" seed) r
  done

(* {1 Early crashes and heavier read mixes} *)

let test_crash_at_first_steps () =
  for crash_at = 0 to 15 do
    let plan =
      {
        Fuzz.default_plan with
        seed = 100 + crash_at;
        n_procs = 3;
        ops_per_proc = 2;
        crash_at = Some crash_at;
        policy = Onll_nvm.Crash_policy.Drop_all;
      }
    in
    let r =
      Fuzz_counter.run ~plan ~gen_update:Gen.Counter.update
        ~gen_read:Gen.Counter.read ()
    in
    assert_clean (Printf.sprintf "early crash %d" crash_at) r
  done

let test_read_heavy_mix () =
  for seed = 1 to 20 do
    let plan =
      {
        Fuzz.default_plan with
        seed;
        n_procs = 3;
        ops_per_proc = 4;
        read_ratio = 0.7;
        crash_at = Some (20 + seed);
        policy = policies seed;
      }
    in
    let r =
      Fuzz_kv.run ~plan ~gen_update:Gen.Kv.update ~gen_read:Gen.Kv.read ()
    in
    assert_clean (Printf.sprintf "read-heavy %d" seed) r
  done

(* {1 Checker bites: a broken implementation is caught} *)

let test_checker_catches_a_bug () =
  (* Simulate a "recovery" that loses a completed op: volatile object whose
     pre-crash history is fed to the checker with a post-crash read of the
     reinitialised state. The checker must reject it. *)
  let module H = Onll_histcheck.Histcheck.Make (Onll_specs.Counter) in
  let open Onll_specs.Counter in
  let h =
    [
      H.Invoke { uid = 0; proc = 0; kind = H.Update Increment };
      H.Return { uid = 0; value = 1 };
      H.Crash;
      (* volatile "recovery": state is back to 0 *)
      H.Invoke { uid = 1; proc = 0; kind = H.Read Get };
      H.Return { uid = 1; value = 0 };
    ]
  in
  match H.check h with
  | H.Violation _ -> ()
  | H.Durably_linearizable _ | H.Budget_exhausted ->
      Alcotest.fail "checker accepted a durability violation"

let () =
  Alcotest.run "integration"
    [
      ( "crash-free",
        [
          Alcotest.test_case "counter" `Quick test_crash_free_counter;
          Alcotest.test_case "queue" `Quick test_crash_free_queue;
          Alcotest.test_case "kv" `Quick test_crash_free_kv;
          Alcotest.test_case "register" `Quick test_crash_free_register;
        ] );
      ( "crashing",
        [
          Alcotest.test_case "counter" `Quick test_crashing_counter;
          Alcotest.test_case "queue" `Quick test_crashing_queue;
          Alcotest.test_case "kv" `Quick test_crashing_kv;
          Alcotest.test_case "stack" `Quick test_crashing_stack;
          Alcotest.test_case "set" `Quick test_crashing_set;
          Alcotest.test_case "ledger" `Quick test_crashing_ledger;
          Alcotest.test_case "register" `Quick test_crashing_register;
          Alcotest.test_case "pqueue" `Quick test_crashing_pqueue;
          Alcotest.test_case "deque" `Quick test_crashing_deque;
        ] );
      ( "variants",
        [
          Alcotest.test_case "local views" `Quick
            test_crashing_counter_with_views;
          Alcotest.test_case "pct schedules" `Quick test_crashing_counter_pct;
          Alcotest.test_case "early crashes" `Quick test_crash_at_first_steps;
          Alcotest.test_case "read-heavy" `Quick test_read_heavy_mix;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "catches violations" `Quick
            test_checker_catches_a_bug;
        ] );
    ]
