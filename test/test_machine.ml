open Onll_machine
open Onll_sched

let check = Alcotest.check

(* {1 Sim machine: Tvar} *)

let test_tvar_basic () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let v = M.Tvar.make 1 in
  check Alcotest.int "get" 1 (M.Tvar.get v);
  M.Tvar.set v 2;
  check Alcotest.int "set" 2 (M.Tvar.get v)

let test_tvar_cas_physical_equality () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  (* refs allocate fresh blocks (constant literals may be shared) *)
  let a = ref 1 and b = ref 1 in
  let v = M.Tvar.make a in
  (* b is structurally equal but physically distinct: CAS must fail *)
  let two = ref 2 in
  check Alcotest.bool "cas wrong witness fails" false
    (M.Tvar.cas v ~expected:b ~desired:two);
  check Alcotest.bool "cas right witness succeeds" true
    (M.Tvar.cas v ~expected:a ~desired:two);
  check Alcotest.int "value updated" 2 !(M.Tvar.get v)

let test_tvar_ops_are_scheduling_points () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let v = M.Tvar.make 0 in
  let w = Sim.world sim in
  ignore
    (Sched.World.run w Sched.Strategy.round_robin
       [|
         (fun _ ->
           M.Tvar.set v 5;
           ignore (M.Tvar.get v);
           ignore (M.Tvar.cas v ~expected:5 ~desired:6));
       |]);
  (* 3 primitive steps + 1 final resume *)
  check Alcotest.int "steps" 4 (Sched.World.steps_taken w)

(* {1 Sim machine: Pm and fences} *)

let test_pm_store_flush_fence () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let r = M.Pm.create ~name:"t" ~size:256 in
  M.Pm.store r ~off:0 "data";
  M.Pm.flush r ~off:0 ~len:4;
  M.fence ();
  check Alcotest.int "one persistent fence" 1 (M.persistent_fences ());
  check Alcotest.string "readable" "data" (M.Pm.load r ~off:0 ~len:4)

let test_fence_label_distinguishes_persistent () =
  let sim = Sim.create ~max_processes:1 ~trace_log:true () in
  let module M = (val Sim.machine sim) in
  let r = M.Pm.create ~name:"t" ~size:64 in
  let w = Sim.world sim in
  ignore
    (Sched.World.run w Sched.Strategy.round_robin
       [|
         (fun _ ->
           M.fence ();  (* nothing pending: plain fence *)
           M.Pm.store r ~off:0 "x";
           M.Pm.flush r ~off:0 ~len:1;
           M.fence () (* pending: persistent *));
       |]);
  let labels = List.map snd (Sched.World.trace w) in
  check Alcotest.bool "has plain fence label" true
    (List.mem Sched.Fence labels);
  check Alcotest.bool "has pfence label" true (List.mem Sched.Pfence labels);
  check Alcotest.int "only one persistent fence" 1 (M.persistent_fences ())

let test_fences_attributed_to_scheduled_proc () =
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let r = M.Pm.create ~name:"t" ~size:256 in
  let proc p _ =
    M.Pm.store r ~off:(p * 64) "z";
    M.Pm.flush r ~off:(p * 64) ~len:1;
    M.fence ()
  in
  ignore
    (Sim.run sim
       (Sched.Strategy.random ~seed:4)
       (Array.init 3 (fun p -> proc p)));
  for p = 0 to 2 do
    check Alcotest.int
      (Printf.sprintf "proc %d fenced once" p)
      1
      (M.persistent_fences_by ~proc:p)
  done

let test_sim_crash_policy_applies () =
  let sim =
    Sim.create ~max_processes:1 ~crash_policy:Onll_nvm.Crash_policy.Persist_all
      ()
  in
  let module M = (val Sim.machine sim) in
  let r = M.Pm.create ~name:"t" ~size:64 in
  let strategy =
    Sched.Strategy.script
      [ Sched.Strategy.Run_steps (0, 2); Sched.Strategy.Crash_here ]
  in
  (* the trailing pause keeps the process alive so the crash lands *)
  ignore
    (Sim.run sim strategy
       [|
         (fun _ ->
           M.Pm.store r ~off:0 "abc";
           M.pause ());
       |]);
  (* Persist_all: the unfenced store survives the crash. *)
  check Alcotest.string "survived under persist-all" "abc"
    (M.Pm.load r ~off:0 ~len:3);
  (* Now the same with Drop_all. *)
  Sim.set_crash_policy sim Onll_nvm.Crash_policy.Drop_all;
  let strategy =
    Sched.Strategy.script
      [ Sched.Strategy.Run_steps (0, 2); Sched.Strategy.Crash_here ]
  in
  ignore
    (Sim.run sim strategy
       [|
         (fun _ ->
           M.Pm.store r ~off:8 "xyz";
           M.pause ());
       |]);
  check Alcotest.string "dropped under drop-all" "\000\000\000"
    (M.Pm.load r ~off:8 ~len:3)

let test_sim_run_rejects_too_many_procs () =
  let sim = Sim.create ~max_processes:2 () in
  Alcotest.check_raises "too many procs"
    (Invalid_argument "Sim.run: more processes than max_processes") (fun () ->
      ignore
        (Sim.run sim Sched.Strategy.round_robin
           (Array.make 3 (fun (_ : int) -> ()))))

let test_sim_self_matches_schedule () =
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let seen = Array.make 3 (-1) in
  ignore
    (Sim.run sim
       (Sched.Strategy.random ~seed:9)
       (Array.init 3 (fun p ->
            fun _ ->
              M.pause ();
              seen.(p) <- M.self ())));
  check Alcotest.(array int) "self = own id" [| 0; 1; 2 |] seen

(* {1 Native machine} *)

let test_native_register_and_self () =
  let n = Native.create ~max_processes:2 ~fence_ns:0 () in
  let module M = (val Native.machine n) in
  let id = Native.register n in
  check Alcotest.int "first id" 0 id;
  check Alcotest.int "self" 0 (M.self ());
  check Alcotest.int "re-register returns same id" 0 (Native.register n)

let test_native_tvar_and_pm () =
  let n = Native.create ~max_processes:1 ~fence_ns:0 () in
  let module M = (val Native.machine n) in
  ignore (Native.register n);
  let v = M.Tvar.make "a" in
  M.Tvar.set v "b";
  check Alcotest.string "tvar" "b" (M.Tvar.get v);
  let r = M.Pm.create ~name:"nat" ~size:128 in
  M.Pm.store r ~off:5 "hello";
  check Alcotest.string "pm roundtrip" "hello" (M.Pm.load r ~off:5 ~len:5);
  M.Pm.store_int64 r ~off:16 77L;
  check Alcotest.int64 "pm int64" 77L (M.Pm.load_int64 r ~off:16)

let test_native_fence_counting () =
  let n = Native.create ~max_processes:1 ~fence_ns:0 () in
  let module M = (val Native.machine n) in
  ignore (Native.register n);
  let r = M.Pm.create ~name:"natf" ~size:128 in
  M.fence ();  (* no pending: not persistent *)
  check Alcotest.int "plain fence free" 0 (M.persistent_fences ());
  M.Pm.store r ~off:0 "x";
  M.Pm.flush r ~off:0 ~len:1;
  M.fence ();
  check Alcotest.int "persistent fence counted" 1 (M.persistent_fences ());
  M.fence ();  (* drained: not persistent *)
  check Alcotest.int "still one" 1 (M.persistent_fences ());
  Native.reset_stats n;
  check Alcotest.int "reset" 0 (M.persistent_fences ())

let test_native_duplicate_region () =
  let n = Native.create ~max_processes:1 () in
  let module M = (val Native.machine n) in
  let _ = M.Pm.create ~name:"dup" ~size:8 in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Native.Pm.create: duplicate region \"dup\"") (fun () ->
      ignore (M.Pm.create ~name:"dup" ~size:8))

(* The emulated fence waits on the monotonic clock: a persistent fence
   lasts at least [fence_ns], on any host and with no calibration. *)
let test_native_fence_spin_timed () =
  let fence_ns = 200_000 in
  let n = Native.create ~max_processes:1 ~fence_ns () in
  ignore (Native.register n);
  let module M = (val Native.machine n) in
  let r = M.Pm.create ~name:"spin" ~size:64 in
  M.Pm.store r ~off:0 "x";
  M.Pm.flush r ~off:0 ~len:1;
  let t0 = Native.monotonic_ns () in
  M.fence ();
  let waited = Int64.sub (Native.monotonic_ns ()) t0 in
  check Alcotest.bool "persistent fence lasted fence_ns" true
    (Int64.compare waited (Int64.of_int fence_ns) >= 0)

let test_native_fence_ns_settable () =
  let n = Native.create ~max_processes:1 ~fence_ns:100 () in
  check Alcotest.int "initial" 100 (Native.fence_ns n);
  Native.set_fence_ns n 250;
  check Alcotest.int "updated" 250 (Native.fence_ns n)

let () =
  Alcotest.run "machine"
    [
      ( "sim.tvar",
        [
          Alcotest.test_case "basic" `Quick test_tvar_basic;
          Alcotest.test_case "cas physical equality" `Quick
            test_tvar_cas_physical_equality;
          Alcotest.test_case "scheduling points" `Quick
            test_tvar_ops_are_scheduling_points;
        ] );
      ( "sim.pm",
        [
          Alcotest.test_case "store/flush/fence" `Quick
            test_pm_store_flush_fence;
          Alcotest.test_case "fence labels" `Quick
            test_fence_label_distinguishes_persistent;
          Alcotest.test_case "fence attribution" `Quick
            test_fences_attributed_to_scheduled_proc;
          Alcotest.test_case "crash policy" `Quick test_sim_crash_policy_applies;
          Alcotest.test_case "proc limit" `Quick
            test_sim_run_rejects_too_many_procs;
          Alcotest.test_case "self" `Quick test_sim_self_matches_schedule;
        ] );
      ( "native",
        [
          Alcotest.test_case "register/self" `Quick
            test_native_register_and_self;
          Alcotest.test_case "tvar and pm" `Quick test_native_tvar_and_pm;
          Alcotest.test_case "fence counting" `Quick test_native_fence_counting;
          Alcotest.test_case "duplicate region" `Quick
            test_native_duplicate_region;
          Alcotest.test_case "fence spin timed by the clock" `Quick
            test_native_fence_spin_timed;
          Alcotest.test_case "fence_ns settable" `Quick
            test_native_fence_ns_settable;
        ] );
    ]
