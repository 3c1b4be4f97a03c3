open Onll_machine
module Lb = Onll_lowerbound.Lowerbound
module Cs = Onll_specs.Counter

let check = Alcotest.check

(* Each setup builds a fresh machine and n one-update processes against one
   implementation. *)

let onll n =
  let sim = Sim.create ~max_processes:n () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  ( sim,
    Array.init n (fun _ -> fun _ -> ignore (C.update obj Cs.Increment)) )

let por n =
  let sim = Sim.create ~max_processes:n () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_baselines.Linearize_early.Make (M) (Cs) in
  let obj = P.create Onll_baselines.Linearize_early.Help in
  ( sim,
    Array.init n (fun _ -> fun _ -> ignore (P.update obj Cs.Increment)) )

let shadow n =
  let sim = Sim.create ~max_processes:n () in
  let module M = (val Sim.machine sim) in
  let module S = Onll_baselines.Shadow.Make (M) (Cs) in
  let obj = S.create () in
  ( sim,
    Array.init n (fun _ -> fun _ -> ignore (S.update obj Cs.Increment)) )

let volatile n =
  let sim = Sim.create ~max_processes:n () in
  let module M = (val Sim.machine sim) in
  let module V = Onll_baselines.Volatile.Make (M) (Cs) in
  let obj = V.create () in
  ( sim,
    Array.init n (fun _ -> fun _ -> ignore (V.update obj Cs.Increment)) )

let flatcomb n =
  let sim = Sim.create ~max_processes:n () in
  let module M = (val Sim.machine sim) in
  let module F = Onll_baselines.Flat_combining.Make (M) (Cs) in
  let obj = F.create () in
  ( sim,
    Array.init n (fun _ -> fun _ -> ignore (F.update obj Cs.Increment)) )

(* {1 ONLL meets the bound tightly, for every n} *)

let test_onll_solo_chain_tight () =
  List.iter
    (fun n ->
      let sim, procs = onll n in
      let r = Lb.solo_chain sim ~procs in
      check Alcotest.bool "measured" true (r.Lb.outcome = Lb.Measured);
      check
        Alcotest.(array int)
        (Printf.sprintf "n=%d: exactly one fence each" n)
        (Array.make n 1) r.Lb.per_proc_fences)
    [ 2; 3; 4; 6; 8 ]

let test_onll_fence_chain_tight () =
  List.iter
    (fun n ->
      let sim, procs = onll n in
      let r = Lb.fence_chain sim ~procs in
      check Alcotest.bool "measured" true (r.Lb.outcome = Lb.Measured);
      check
        Alcotest.(array int)
        (Printf.sprintf "n=%d: exactly one fence each" n)
        (Array.make n 1) r.Lb.per_proc_fences;
      check Alcotest.bool "bound satisfied" true (Lb.all_at_least_one r))
    [ 2; 3; 4; 6; 8 ]

let test_onll_rounds_one_fence_per_operation () =
  (* The theorem's actual unit is fences per update INVOKED: k operations
     each, parked before the k-th response, must show exactly k fences per
     process. *)
  List.iter
    (fun rounds ->
      let n = 3 in
      let sim = Sim.create ~max_processes:n () in
      let module M = (val Sim.machine sim) in
      let module C = Onll_core.Onll.Make (M) (Cs) in
      let obj = C.make Onll_core.Onll.Config.default in
      let procs =
        Array.init n (fun _ ->
            fun _ ->
              for _ = 1 to rounds do
                ignore (C.update obj Cs.Increment)
              done)
      in
      let r = Lb.solo_chain_rounds ~rounds sim ~procs in
      check Alcotest.bool "measured" true (r.Lb.outcome = Lb.Measured);
      check
        Alcotest.(array int)
        (Printf.sprintf "%d fences per process after %d rounds" rounds rounds)
        (Array.make n rounds) r.Lb.per_proc_fences;
      check Alcotest.bool "all_at_least" true (Lb.all_at_least rounds r))
    [ 1; 2; 3; 5 ]

(* {1 Baselines behave as the theory predicts} *)

let test_por_meets_bound () =
  let sim, procs = por 4 in
  let r = Lb.solo_chain sim ~procs in
  check Alcotest.bool "lock-free durable: >= 1 fence each" true
    (Lb.all_at_least_one r)

let test_shadow_pays_double () =
  let sim, procs = shadow 4 in
  let r = Lb.solo_chain sim ~procs in
  check Alcotest.bool "measured" true (r.Lb.outcome = Lb.Measured);
  check
    Alcotest.(array int)
    "two fences each (shadow paging)"
    [| 2; 2; 2; 2 |]
    r.Lb.per_proc_fences

let test_volatile_fails_the_bound () =
  (* Not durable — the execution exists but shows zero fences, which is the
     checker's way of saying durability is impossible here. *)
  let sim, procs = volatile 4 in
  let r = Lb.solo_chain sim ~procs in
  check Alcotest.bool "no fences" false (Lb.all_at_least_one r);
  check
    Alcotest.(array int)
    "zero everywhere" [| 0; 0; 0; 0 |] r.Lb.per_proc_fences

let test_volatile_completes_early_on_fence_chain () =
  let sim, procs = volatile 3 in
  let r = Lb.fence_chain sim ~procs in
  check Alcotest.bool "never reaches a fence" true
    (r.Lb.outcome = Lb.Completed_early)

let test_flat_combining_livelocks () =
  (* Blocking implementations dodge the fence count by making everyone wait:
     the fence-chain adversary exposes this as a livelock. *)
  let sim, procs = flatcomb 3 in
  let r = Lb.fence_chain ~max_steps:20_000 sim ~procs in
  (match r.Lb.outcome with
  | Lb.Livelock p -> check Alcotest.bool "a waiter starved" true (p >= 0)
  | Lb.Measured | Lb.Completed_early ->
      Alcotest.fail "expected livelock for a blocking implementation");
  check Alcotest.bool "bound not met by fencing" false (Lb.all_at_least_one r)

let test_shadow_livelocks_on_fence_chain () =
  let sim, procs = shadow 3 in
  let r = Lb.fence_chain ~max_steps:20_000 sim ~procs in
  check Alcotest.bool "lock-based: livelock" true
    (match r.Lb.outcome with Lb.Livelock _ -> true | _ -> false)

(* {1 Harness mechanics} *)

let test_report_printing () =
  let sim, procs = onll 2 in
  let r = Lb.solo_chain sim ~procs in
  let s = Format.asprintf "%a" Lb.pp_report r in
  check Alcotest.bool "mentions fences" true
    (String.length s > 0 && String.contains s 'f')

let test_stats_reset_between_reports () =
  (* Two consecutive harness runs on the same sim must not accumulate. *)
  let sim, procs = onll 2 in
  let r1 = Lb.solo_chain sim ~procs in
  check Alcotest.(array int) "first" [| 1; 1 |] r1.Lb.per_proc_fences
  (* procs are finished now; a second run would need fresh closures, which
     is exactly why the setups above rebuild everything. *)

let () =
  Alcotest.run "lowerbound"
    [
      ( "onll",
        [
          Alcotest.test_case "solo chain tight" `Quick
            test_onll_solo_chain_tight;
          Alcotest.test_case "fence chain tight" `Quick
            test_onll_fence_chain_tight;
          Alcotest.test_case "k rounds, k fences" `Quick
            test_onll_rounds_one_fence_per_operation;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "persist-on-read meets bound" `Quick
            test_por_meets_bound;
          Alcotest.test_case "shadow pays double" `Quick
            test_shadow_pays_double;
          Alcotest.test_case "volatile fails" `Quick
            test_volatile_fails_the_bound;
          Alcotest.test_case "volatile completes early" `Quick
            test_volatile_completes_early_on_fence_chain;
          Alcotest.test_case "flat combining livelocks" `Quick
            test_flat_combining_livelocks;
          Alcotest.test_case "shadow livelocks" `Quick
            test_shadow_livelocks_on_fence_chain;
        ] );
      ( "harness",
        [
          Alcotest.test_case "report printing" `Quick test_report_printing;
          Alcotest.test_case "stats reset" `Quick
            test_stats_reset_between_reports;
        ] );
    ]
