(* File_memory / File_machine (E17): real files, real fsync fences.

   What must hold on real media, with the write-backs deferred to the
   fence: fenced data survives close-and-reopen, unfenced data does not
   (it lived only in the process heap); a fence with nothing pending is
   not persistent and does no fsync; the §2.1 constructions (Plog,
   counter, mirroring, sessions) run unchanged over the file machine and
   recover from what the files actually hold; fsync EIO is retried with
   full re-writes (fsyncgate) within the budget and degrades sticky
   fail-stop past it — never acking an update whose fence failed. *)

module Fmem = Onll_nvm.File_memory
module Fm = Onll_machine.File_machine
module Faults = Onll_faults.Faults
module Cs = Onll_specs.Counter

let check = Alcotest.check

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "onll-tfm-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o755;
    d

(* {1 Durability across reopen} *)

let test_fenced_survives_reopen () =
  let dir = fresh_dir () in
  let fm = Fmem.create ~dir ~max_processes:1 () in
  let r = Fmem.region fm ~name:"data" ~size:1024 in
  Fmem.Region.store r ~proc:0 ~off:0 "fenced!!";
  Fmem.Region.flush r ~proc:0 ~off:0 ~len:8;
  Fmem.fence fm ~proc:0;
  Fmem.Region.store r ~proc:0 ~off:512 "unfenced";
  Fmem.Region.flush r ~proc:0 ~off:512 ~len:8;
  (* flushed but never fenced: the write-back never ran *)
  Fmem.close fm;
  let fm2 = Fmem.create ~dir ~max_processes:1 () in
  let r2 = Fmem.region fm2 ~name:"data" ~size:1024 in
  check Alcotest.string "fenced data survived" "fenced!!"
    (Fmem.Region.load r2 ~proc:0 ~off:0 ~len:8);
  check Alcotest.string "unfenced data lost" (String.make 8 '\000')
    (Fmem.Region.load r2 ~proc:0 ~off:512 ~len:8);
  Fmem.close fm2

let test_store_without_flush_not_durable () =
  let dir = fresh_dir () in
  let fm = Fmem.create ~dir ~max_processes:1 () in
  let r = Fmem.region fm ~name:"data" ~size:512 in
  Fmem.Region.store r ~proc:0 ~off:0 "cached##";
  Fmem.fence fm ~proc:0;
  (* stored but never flushed: the fence had nothing pending *)
  check Alcotest.string "volatile view sees it" "cached##"
    (Fmem.Region.load r ~proc:0 ~off:0 ~len:8);
  check Alcotest.string "durable view does not" (String.make 8 '\000')
    (String.sub (Fmem.Region.durable_snapshot r) 0 8);
  Fmem.close fm

let test_empty_fence_no_fsync () =
  let dir = fresh_dir () in
  let fm = Fmem.create ~dir ~max_processes:1 () in
  let r = Fmem.region fm ~name:"data" ~size:512 in
  Fmem.Region.store r ~proc:0 ~off:0 "x";
  Fmem.Region.flush r ~proc:0 ~off:0 ~len:1;
  Fmem.fence fm ~proc:0;
  let s1 = Fmem.stats fm in
  Fmem.fence fm ~proc:0;
  Fmem.fence fm ~proc:0;
  let s2 = Fmem.stats fm in
  check Alcotest.int "no fsync for empty fences" s1.Fmem.Stats.fsyncs
    s2.Fmem.Stats.fsyncs;
  check Alcotest.int "not persistent fences" s1.Fmem.Stats.persistent_fences
    s2.Fmem.Stats.persistent_fences;
  check Alcotest.int "still ordinary fences"
    (s1.Fmem.Stats.fences + 2)
    s2.Fmem.Stats.fences;
  Fmem.close fm

let test_region_reopen_size_mismatch () =
  let dir = fresh_dir () in
  let fm = Fmem.create ~dir ~max_processes:1 () in
  ignore (Fmem.region fm ~name:"data" ~size:1024);
  Fmem.close fm;
  let fm2 = Fmem.create ~dir ~max_processes:1 () in
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument
       "File_memory.region: \"data\" exists with size 1024, expected 4096")
    (fun () -> ignore (Fmem.region fm2 ~name:"data" ~size:4096));
  Fmem.close fm2

(* {1 The constructions, unchanged, on files} *)

let counter_epoch ~dir ~replicas ~updates =
  let fmach = Fm.create ~dir ~max_processes:1 () in
  ignore (Fm.register fmach);
  let module M = (val Fm.machine fmach) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj =
    C.make { Onll_core.Onll.Config.default with log_capacity = 8192; replicas }
  in
  let report = C.recover_report obj in
  let v0 = C.read obj Cs.Get in
  for _ = 1 to updates do
    ignore (C.update obj Cs.Increment)
  done;
  let v = C.read obj Cs.Get in
  Fm.close fmach;
  (report, v0, v)

let test_counter_recovers_across_processes_lifetimes () =
  let dir = fresh_dir () in
  let _, v0, v = counter_epoch ~dir ~replicas:1 ~updates:5 in
  check Alcotest.int "fresh store starts at 0" 0 v0;
  check Alcotest.int "five updates" 5 v;
  let _, v0', v' = counter_epoch ~dir ~replicas:1 ~updates:3 in
  check Alcotest.int "reopened store recovered 5" 5 v0';
  check Alcotest.int "three more" 8 v'

let test_mirrored_counter_on_two_files () =
  let dir = fresh_dir () in
  let _, _, v = counter_epoch ~dir ~replicas:2 ~updates:4 in
  check Alcotest.int "mirrored updates" 4 v;
  (* two files per log: the primary and its mirror *)
  let files = Sys.readdir dir in
  Array.sort compare files;
  check Alcotest.bool "mirror region file exists" true
    (Array.exists
       (fun f -> Onll_plog.Plog.is_mirror_region f)
       files);
  let _, v0', _ = counter_epoch ~dir ~replicas:2 ~updates:0 in
  check Alcotest.int "mirrored store recovered" 4 v0'

(* {1 fsync failure: bounded retry, then sticky fail-stop} *)

let test_eio_within_budget_retried () =
  let dir = fresh_dir () in
  let fm = Fmem.create ~dir ~max_processes:1 ~retry_budget:8 ~backoff_ns:0 () in
  let h =
    Faults.install_file fm
      {
        Faults.File_plan.none with
        fsync_eio_from = 1;
        fsync_eio_count = 3;
        drop_pages_on_eio = true;
      }
  in
  let r = Fmem.region fm ~name:"data" ~size:512 in
  Fmem.Region.store r ~proc:0 ~off:0 "survive!";
  Fmem.Region.flush r ~proc:0 ~off:0 ~len:8;
  Fmem.fence fm ~proc:0;
  let c = Faults.file_counters h in
  check Alcotest.int "three EIOs injected" 3 c.Faults.f_eio_injected;
  check Alcotest.bool "retries recorded" true
    ((Fmem.stats fm).Fmem.Stats.fsync_retries >= 3);
  check Alcotest.bool "not degraded" false (Fmem.degraded fm);
  Faults.remove_file h;
  Fmem.close fm;
  (* fsyncgate check: the EIO'd attempts reverted their writes, but the
     final successful attempt re-wrote everything — durable on reopen *)
  let fm2 = Fmem.create ~dir ~max_processes:1 () in
  let r2 = Fmem.region fm2 ~name:"data" ~size:512 in
  check Alcotest.string "data durable after retried EIO" "survive!"
    (Fmem.Region.load r2 ~proc:0 ~off:0 ~len:8);
  Fmem.close fm2

let test_eio_past_budget_sticky_degraded () =
  let dir = fresh_dir () in
  let fm = Fmem.create ~dir ~max_processes:1 ~retry_budget:3 ~backoff_ns:0 () in
  let h =
    Faults.install_file fm
      {
        Faults.File_plan.none with
        fsync_eio_from = 1;
        fsync_eio_count = 1000;
        drop_pages_on_eio = true;
      }
  in
  let r = Fmem.region fm ~name:"data" ~size:512 in
  Fmem.Region.store r ~proc:0 ~off:0 "doomed##";
  Fmem.Region.flush r ~proc:0 ~off:0 ~len:8;
  (match Fmem.fence fm ~proc:0 with
  | () -> Alcotest.fail "fence succeeded under unbounded EIO"
  | exception Fmem.Degraded _ -> ());
  check Alcotest.bool "sticky flag up" true (Fmem.degraded fm);
  (* every later fence fails too, even with nothing pending: fail-stop *)
  (match Fmem.fence fm ~proc:0 with
  | () -> Alcotest.fail "post-degradation fence succeeded"
  | exception Fmem.Degraded _ -> ());
  (* and the page-dropped data never reached the file *)
  check Alcotest.string "dropped pages not durable" (String.make 8 '\000')
    (String.sub (Fmem.Region.durable_snapshot r) 0 8);
  Faults.remove_file h;
  Fmem.close fm

let test_short_writes_healed_by_retry () =
  let dir = fresh_dir () in
  let fm = Fmem.create ~dir ~max_processes:1 ~retry_budget:64 ~backoff_ns:0 () in
  let h =
    Faults.install_file fm
      {
        Faults.File_plan.none with
        base = { Faults.Plan.none with seed = 7 };
        (* 4 dirty sectors at p=0.25: each write-back attempt survives
           with p ~ 0.32, so 64 attempts heal with near certainty (and
           deterministically, for this seed) *)
        short_write_prob = 0.25;
      }
  in
  let r = Fmem.region fm ~name:"data" ~size:2048 in
  for i = 0 to 3 do
    Fmem.Region.store r ~proc:0 ~off:(i * 512) (Printf.sprintf "sector%02d" i);
    Fmem.Region.flush r ~proc:0 ~off:(i * 512) ~len:8
  done;
  Fmem.fence fm ~proc:0;
  let c = Faults.file_counters h in
  check Alcotest.bool "short writes injected" true (c.Faults.f_short_writes > 0);
  Faults.remove_file h;
  Fmem.close fm;
  let fm2 = Fmem.create ~dir ~max_processes:1 () in
  let r2 = Fmem.region fm2 ~name:"data" ~size:2048 in
  for i = 0 to 3 do
    check Alcotest.string
      (Printf.sprintf "sector %d durable despite torn writes" i)
      (Printf.sprintf "sector%02d" i)
      (Fmem.Region.load r2 ~proc:0 ~off:(i * 512) ~len:8)
  done;
  Fmem.close fm2

(* {1 Exactly-once sessions over crash-restarts} *)

module Fc = Test_support.File_chaos
module Campaign = Test_support.Campaign

let restart_row ~runner ~replicas ~target ~seeds =
  Test_support.Temp_dir.with_fresh ~prefix:"onll-test-e17" (fun dir ->
      Fc.restart_arm ~runner ~dir ~name:"restart" ~replicas ~target ~seeds)

let test_session_exactly_once_restart_grid () =
  List.iter
    (fun replicas ->
      let row =
        restart_row ~runner:Fc.in_process ~replicas ~target:5 ~seeds:4
      in
      check
        Alcotest.(list string)
        (Printf.sprintf "replicas=%d: zero violations" replicas)
        [] row.Campaign.violations;
      check Alcotest.bool
        (Printf.sprintf "replicas=%d: kills actually fired" replicas)
        true
        (Campaign.get row "kills" > 0))
    [ 1; 2 ]

(* A campaign over a kept directory must not run over the stores an
   earlier run left: the second scenario directory of one name under one
   base is refused, naming it, and the first is left as it was. *)
let test_scenario_dir_reuse_refused () =
  Test_support.Temp_dir.with_fresh ~prefix:"onll-test-sub" (fun base ->
      let d = Test_support.Temp_dir.sub base "plain-0" in
      Out_channel.with_open_bin (Filename.concat d "store") (fun oc ->
          output_string oc "kept");
      (match Test_support.Temp_dir.sub base "plain-0" with
      | _ -> Alcotest.fail "a second scenario directory of one name"
      | exception Test_support.Temp_dir.Exists p ->
          check Alcotest.string "names the directory" d p);
      check Alcotest.bool "the kept store is untouched" true
        (Sys.file_exists (Filename.concat d "store")))

(* The kill -9 path: every epoch a forked child that SIGKILLs itself at
   the seeded fence; recovery runs in the next child. *)
let test_forked_kill_scenario replicas () =
  let target = 5 in
  let row = restart_row ~runner:Fc.forked ~replicas ~target ~seeds:1 in
  check Alcotest.bool "at least one SIGKILL" true
    (Campaign.get row "kills" > 0);
  check Alcotest.(list string) "zero violations" [] row.Campaign.violations;
  check Alcotest.int "final value = target" target (Campaign.get row "value")

let () =
  Alcotest.run "file_memory"
    [
      ( "durability",
        [
          Alcotest.test_case "fenced survives reopen" `Quick
            test_fenced_survives_reopen;
          Alcotest.test_case "store without flush volatile" `Quick
            test_store_without_flush_not_durable;
          Alcotest.test_case "empty fence no fsync" `Quick
            test_empty_fence_no_fsync;
          Alcotest.test_case "reopen size mismatch" `Quick
            test_region_reopen_size_mismatch;
        ] );
      ( "constructions",
        [
          Alcotest.test_case "counter across lifetimes" `Quick
            test_counter_recovers_across_processes_lifetimes;
          Alcotest.test_case "mirrored on two files" `Quick
            test_mirrored_counter_on_two_files;
        ] );
      ( "fsync failure",
        [
          Alcotest.test_case "EIO within budget retried" `Quick
            test_eio_within_budget_retried;
          Alcotest.test_case "EIO past budget sticky" `Quick
            test_eio_past_budget_sticky_degraded;
          Alcotest.test_case "short writes healed" `Quick
            test_short_writes_healed_by_retry;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "exactly-once restart grid" `Quick
            test_session_exactly_once_restart_grid;
          Alcotest.test_case "kill -9 scenario, one replica" `Quick
            (test_forked_kill_scenario 1);
          Alcotest.test_case "kill -9 scenario, two replicas" `Quick
            (test_forked_kill_scenario 2);
          Alcotest.test_case "a kept scenario directory is refused" `Quick
            test_scenario_dir_reuse_refused;
        ] );
    ]
