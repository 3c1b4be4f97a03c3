open Onll_machine
open Onll_sched

let check = Alcotest.check

let test_append_entries_roundtrip () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  P.append log "alpha";
  P.append log "beta";
  P.append log "gamma";
  check Alcotest.(list string) "entries in order" [ "alpha"; "beta"; "gamma" ]
    (P.entries log);
  check Alcotest.int "count" 3 (P.entry_count log)

let test_one_persistent_fence_per_append () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  for i = 1 to 10 do
    P.append log (Printf.sprintf "entry-%d" i);
    check Alcotest.int "fences = appends" i (M.persistent_fences ())
  done

let test_append_durable_across_crash () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  P.append log "persisted";
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  ignore (P.recover log);
  check Alcotest.(list string) "entry survives" [ "persisted" ]
    (P.entries log);
  (* New appends continue after the recovered tail. *)
  P.append log "after";
  check Alcotest.(list string) "continues" [ "persisted"; "after" ]
    (P.entries log)

let test_torn_append_rejected () =
  (* Crash mid-append under Persist_all: whatever bytes were stored do
     persist, but the CRC does not validate, so recovery drops the torn
     entry and keeps the fenced prefix. We cut the append after a few of its
     stores using a scripted schedule. *)
  let sim =
    Sim.create ~max_processes:1
      ~crash_policy:Onll_nvm.Crash_policy.Persist_all ()
  in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  P.append log "good";
  let strategy =
    Sched.Strategy.script
      [ Sched.Strategy.Run_steps (0, 2); Sched.Strategy.Crash_here ]
  in
  let outcome =
    Sim.run sim strategy [| (fun _ -> P.append log "interrupted") |]
  in
  check Alcotest.bool "crashed" true (outcome = Sched.World.Crashed);
  ignore (P.recover log);
  check Alcotest.(list string) "only the fenced entry" [ "good" ]
    (P.entries log)

let test_unfenced_append_may_survive_persist_all () =
  (* Crash after all stores+flushes but before the fence, under Persist_all:
     the entry is complete in the cache, the crash "evicts" it, recovery
     accepts it (its CRC validates). Both outcomes are legal durable states;
     this pins the simulator's behaviour. *)
  let sim =
    Sim.create ~max_processes:1
      ~crash_policy:Onll_nvm.Crash_policy.Persist_all ()
  in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  let strategy =
    Sched.Strategy.script
      [
        (* park just before the fence, then crash *)
        Sched.Strategy.run_until_pfence 0;
        Sched.Strategy.Crash_here;
      ]
  in
  ignore (Sim.run sim strategy [| (fun _ -> P.append log "lucky") |]);
  ignore (P.recover log);
  check Alcotest.(list string) "lucky entry recovered" [ "lucky" ]
    (P.entries log);
  check Alcotest.int "no fence was executed" 0 (M.persistent_fences ())

let test_unfenced_append_lost_drop_all () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  let strategy =
    Sched.Strategy.script
      [ Sched.Strategy.run_until_pfence 0; Sched.Strategy.Crash_here ]
  in
  ignore (Sim.run sim strategy [| (fun _ -> P.append log "unlucky") |]);
  ignore (P.recover log);
  check Alcotest.(list string) "nothing recovered" [] (P.entries log)

let test_full_raises () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:64 () in
  P.append log (String.make 40 'x');
  check Alcotest.bool "full" true
    (match P.append log (String.make 40 'y') with
    | exception Onll_plog.Plog.Full -> true
    | () -> false)

let test_empty_payload_rejected () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:64 () in
  Alcotest.check_raises "empty payload"
    (Invalid_argument "Plog.append: empty payload") (fun () ->
      P.append log "")

let test_used_and_live_bytes () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  check Alcotest.int "empty used" 0 (P.used_bytes log);
  P.append log "12345";  (* 16 header + 5 *)
  check Alcotest.int "used" 21 (P.used_bytes log);
  check Alcotest.int "live = used" 21 (P.live_bytes log)

let test_set_head_compacts () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  P.append log "one";
  P.append log "two";
  P.append log "three";
  P.set_head log 2;
  check Alcotest.(list string) "only the tail entries" [ "three" ]
    (P.entries log);
  check Alcotest.bool "live < used" true (P.live_bytes log < P.used_bytes log);
  (* Appends continue normally. *)
  P.append log "four";
  check Alcotest.(list string) "append after compaction" [ "three"; "four" ]
    (P.entries log)

let test_set_head_durable_across_crash () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  P.append log "a";
  P.append log "b";
  P.set_head log 1;
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  ignore (P.recover log);
  check Alcotest.(list string) "head survived" [ "b" ] (P.entries log)

let test_set_head_zero_noop_and_errors () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  P.append log "a";
  P.set_head log 0;
  check Alcotest.(list string) "0 is a no-op" [ "a" ] (P.entries log);
  check Alcotest.bool "too many raises" true
    (match P.set_head log 5 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_set_head_all_entries () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  P.append log "a";
  P.append log "b";
  P.set_head log 2;
  check Alcotest.(list string) "empty after full compaction" []
    (P.entries log);
  P.append log "c";
  check Alcotest.(list string) "append after full compaction" [ "c" ]
    (P.entries log)

let test_crash_during_set_head_keeps_a_valid_header () =
  (* The header is two versioned slots; a torn header write must leave the
     previous head intact. Park the set_head just before its fence and crash
     with Drop_all: the new header never persists, the old one rules. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  P.append log "a";
  P.append log "b";
  P.set_head log 1;  (* durable head: entry "b" *)
  let strategy =
    Sched.Strategy.script
      [ Sched.Strategy.run_until_pfence 0; Sched.Strategy.Crash_here ]
  in
  ignore (Sim.run sim strategy [| (fun _ -> P.set_head log 1) |]);
  ignore (P.recover log);
  check Alcotest.(list string) "previous head preserved" [ "b" ]
    (P.entries log)

let test_crash_during_set_head_newer_header_wins () =
  (* Same cut as above, but under Persist_all the stored (unfenced) header
     slot is evicted-persisted: both slots are now valid and recovery must
     pick the one with the higher sequence number — the new head. *)
  let sim =
    Sim.create ~max_processes:1
      ~crash_policy:Onll_nvm.Crash_policy.Persist_all ()
  in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  P.append log "a";
  P.append log "b";
  let strategy =
    Sched.Strategy.script
      [ Sched.Strategy.run_until_pfence 0; Sched.Strategy.Crash_here ]
  in
  ignore (Sim.run sim strategy [| (fun _ -> P.set_head log 1) |]);
  ignore (P.recover log);
  check Alcotest.(list string) "newer valid header wins" [ "b" ]
    (P.entries log)

(* {1 Salvage: media faults in durable bytes} *)

(* Three 8-byte entries occupy [64,88), [88,112), [112,136). *)
let flip region ~off =
  Onll_nvm.Memory.Region.corrupt region ~off ~len:1 ~f:(fun _ c ->
      Char.chr (Char.code c lxor 0x10))

let test_salvage_quarantines_interior_corruption () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  P.append log "aaaaaaaa";
  P.append log "bbbbbbbb";
  P.append log "cccccccc";
  let region =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l")
  in
  (* rot a payload byte of the MIDDLE entry: its CRC no longer validates,
     but the entry after it does — interior corruption, not a torn tail *)
  flip region ~off:(88 + 16 + 3);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = P.recover log in
  check Alcotest.(list string) "entries beyond the rot survive"
    [ "aaaaaaaa"; "cccccccc" ] (P.entries log);
  check Alcotest.int "one quarantined span" 1
    r.Onll_plog.Plog.quarantined_spans;
  check Alcotest.int "span = the whole middle entry" 24
    r.Onll_plog.Plog.quarantined_bytes;
  check Alcotest.int "no torn tail" 0 r.Onll_plog.Plog.torn_tail_bytes;
  check Alcotest.bool "reported as loss" true
    (Onll_plog.Plog.report_lost r > 0);
  (* Salvage is idempotent: a second recovery finds a clean log whose only
     scar is the durable skip marker. *)
  let r2 = P.recover log in
  check Alcotest.(list string) "stable" [ "aaaaaaaa"; "cccccccc" ]
    (P.entries log);
  check Alcotest.int "nothing newly quarantined" 0
    r2.Onll_plog.Plog.quarantined_spans;
  check Alcotest.int "the old marker is still counted" 1
    r2.Onll_plog.Plog.skip_markers;
  (* And the log is still writable. *)
  P.append log "dddddddd";
  check Alcotest.(list string) "appends continue"
    [ "aaaaaaaa"; "cccccccc"; "dddddddd" ] (P.entries log)

let test_salvage_truncates_corrupt_tail () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  P.append log "aaaaaaaa";
  P.append log "bbbbbbbb";
  P.append log "cccccccc";
  let region =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l")
  in
  (* rot the LAST entry: no valid entry follows, so this is
     indistinguishable from a torn append and must be truncated, not
     quarantined *)
  flip region ~off:(112 + 16 + 3);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = P.recover log in
  check Alcotest.(list string) "prefix survives" [ "aaaaaaaa"; "bbbbbbbb" ]
    (P.entries log);
  check Alcotest.int "tail zeroed" 24 r.Onll_plog.Plog.torn_tail_bytes;
  check Alcotest.int "nothing quarantined" 0
    r.Onll_plog.Plog.quarantined_spans;
  (* the truncated space is reusable *)
  P.append log "dddddddd";
  check Alcotest.(list string) "appends continue"
    [ "aaaaaaaa"; "bbbbbbbb"; "dddddddd" ] (P.entries log)

let test_unhardened_recover_silently_truncates () =
  (* The calibration baseline: same interior rot as the quarantine test,
     but the pre-hardening scan stops dead at the first bad CRC — the valid
     entry beyond it is silently thrown away and nothing is reported. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  P.append log "aaaaaaaa";
  P.append log "bbbbbbbb";
  P.append log "cccccccc";
  let region =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l")
  in
  flip region ~off:(88 + 16 + 3);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  P.recover_unhardened log;
  check Alcotest.(list string) "fenced entry c silently gone" [ "aaaaaaaa" ]
    (P.entries log)

(* {1 Mirroring: durable redundancy and repair} *)

let test_mirrored_roundtrip () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 ~replicas:2 () in
  check Alcotest.int "replicas" 2 (P.replicas log);
  check Alcotest.(list string) "region names" [ "l"; "l~1" ]
    (P.region_names log);
  P.append log "alpha";
  P.append log "beta";
  check Alcotest.(list string) "entries" [ "alpha"; "beta" ] (P.entries log);
  (* both replica regions really exist in NVM *)
  check Alcotest.bool "mirror region exists" true
    (Onll_nvm.Memory.find_region (Sim.memory sim) "l~1" <> None);
  check Alcotest.bool "mirror marker" true
    (Onll_plog.Plog.is_mirror_region "l~1");
  check Alcotest.bool "primary is not a mirror" false
    (Onll_plog.Plog.is_mirror_region "l")

let test_mirrored_one_fence_per_append () =
  (* the tentpole invariant: both replica flushes drain under ONE fence *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 ~replicas:2 () in
  for i = 1 to 10 do
    P.append log (Printf.sprintf "entry-%d" i);
    check Alcotest.int "fences = appends despite 2 replicas" i
      (M.persistent_fences ())
  done

let test_mirrored_repairs_interior_rot () =
  (* same rot as the quarantine test, but the mirror holds an intact copy:
     recovery must restore the entry in place and lose NOTHING *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 ~replicas:2 () in
  P.append log "aaaaaaaa";
  P.append log "bbbbbbbb";
  P.append log "cccccccc";
  let primary =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l")
  in
  flip primary ~off:(88 + 16 + 3);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = P.recover log in
  check Alcotest.(list string) "nothing lost"
    [ "aaaaaaaa"; "bbbbbbbb"; "cccccccc" ] (P.entries log);
  check Alcotest.int "one entry repaired" 1 r.Onll_plog.Plog.repaired_entries;
  check Alcotest.int "nothing quarantined" 0
    r.Onll_plog.Plog.quarantined_spans;
  check Alcotest.int "no loss reported" 0 (Onll_plog.Plog.report_lost r);
  (* the repair was durable and byte-exact: a second recovery is clean *)
  let r2 = P.recover log in
  check Alcotest.int "idempotent: no re-repair" 0
    r2.Onll_plog.Plog.repaired_entries;
  check Alcotest.(list string) "stable"
    [ "aaaaaaaa"; "bbbbbbbb"; "cccccccc" ] (P.entries log)

let test_mirrored_tail_fault_disambiguated () =
  (* E12's tail ambiguity, resolved: a media fault on the LAST entry hits
     one replica, so the mirror proves it was a completed append and heals
     it — where the single-copy log had to truncate and shrug. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 ~replicas:2 () in
  P.append log "aaaaaaaa";
  P.append log "bbbbbbbb";
  P.append log "cccccccc";
  let primary =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l")
  in
  flip primary ~off:(112 + 16 + 3);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = P.recover log in
  check Alcotest.(list string) "tail entry healed, not truncated"
    [ "aaaaaaaa"; "bbbbbbbb"; "cccccccc" ] (P.entries log);
  check Alcotest.int "repaired" 1 r.Onll_plog.Plog.repaired_entries;
  check Alcotest.int "no torn tail" 0 r.Onll_plog.Plog.torn_tail_bytes

let test_mirrored_torn_append_tears_all_replicas () =
  (* the other side of the disambiguation: a genuinely torn append never
     completed its single fence, so NO replica holds a valid copy — the
     tail is truncated in all of them and nothing acknowledged is lost *)
  let sim =
    Sim.create ~max_processes:1
      ~crash_policy:Onll_nvm.Crash_policy.Persist_all ()
  in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 ~replicas:2 () in
  P.append log "good";
  let strategy =
    Sched.Strategy.script
      [ Sched.Strategy.Run_steps (0, 2); Sched.Strategy.Crash_here ]
  in
  let outcome =
    Sim.run sim strategy [| (fun _ -> P.append log "interrupted") |]
  in
  check Alcotest.bool "crashed" true (outcome = Sched.World.Crashed);
  let r = P.recover log in
  check Alcotest.(list string) "only the fenced entry" [ "good" ]
    (P.entries log);
  check Alcotest.int "no repair possible (no intact copy exists)" 0
    r.Onll_plog.Plog.repaired_entries

let test_mirrored_double_fault_quarantined () =
  (* a span corrupt in EVERY replica is genuine loss: quarantined and
     reported, with the entries beyond it still saved *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 ~replicas:2 () in
  P.append log "aaaaaaaa";
  P.append log "bbbbbbbb";
  P.append log "cccccccc";
  let primary =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l")
  in
  let mirror =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l~1")
  in
  flip primary ~off:(88 + 16 + 3);
  flip mirror ~off:(88 + 16 + 4);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = P.recover log in
  check Alcotest.(list string) "both-replica hit is lost, rest survives"
    [ "aaaaaaaa"; "cccccccc" ] (P.entries log);
  check Alcotest.int "quarantined" 1 r.Onll_plog.Plog.quarantined_spans;
  check Alcotest.int "reported as loss" 24 (Onll_plog.Plog.report_lost r)

let test_scrub_heals_divergence_online () =
  (* no crash at all: rot the primary while the log is live, scrub, and the
     divergence is gone before recovery ever sees it *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 ~replicas:2 () in
  P.append log "aaaaaaaa";
  P.append log "bbbbbbbb";
  P.append log "cccccccc";
  let primary =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l")
  in
  flip primary ~off:(88 + 16 + 3);
  let s = P.scrub log in
  check Alcotest.int "walked all live entries" 3
    s.Onll_plog.Plog.scrubbed_entries;
  check Alcotest.int "healed one" 1 s.Onll_plog.Plog.scrub_repaired_entries;
  check Alcotest.int "nothing unrepairable" 0
    s.Onll_plog.Plog.unrepairable_spans;
  (* idempotent: nothing left to do *)
  let s2 = P.scrub log in
  check Alcotest.int "second pass clean" 0
    s2.Onll_plog.Plog.scrub_repaired_entries;
  (* the log keeps working and a crash later finds nothing to repair *)
  P.append log "dddddddd";
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = P.recover log in
  check Alcotest.(list string) "all four entries"
    [ "aaaaaaaa"; "bbbbbbbb"; "cccccccc"; "dddddddd" ] (P.entries log);
  check Alcotest.int "recovery had nothing to heal" 0
    r.Onll_plog.Plog.repaired_entries

let test_scrub_quarantines_double_fault () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 ~replicas:2 () in
  P.append log "aaaaaaaa";
  P.append log "bbbbbbbb";
  P.append log "cccccccc";
  let primary =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l")
  in
  let mirror =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l~1")
  in
  flip primary ~off:(88 + 16 + 3);
  flip mirror ~off:(88 + 16 + 4);
  let s = P.scrub log in
  check Alcotest.int "unrepairable" 1 s.Onll_plog.Plog.unrepairable_spans;
  check Alcotest.(list string) "survivors still served"
    [ "aaaaaaaa"; "cccccccc" ] (P.entries log);
  (* the quarantine is durable: still stable after crash+recover *)
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = P.recover log in
  check Alcotest.(list string) "stable" [ "aaaaaaaa"; "cccccccc" ]
    (P.entries log);
  check Alcotest.int "nothing NEWLY quarantined" 0
    r.Onll_plog.Plog.quarantined_spans

let test_relocate_sources_from_intact_replica () =
  (* Regression: relocate used to bulk-copy the live span from the primary
     with no CRC check, then overwrite every replica and zero the old
     offsets — propagating a rotted primary record onto the mirror AND
     destroying the mirror's intact copy, converting a repairable
     single-replica fault into unrepairable loss. The copy must source
     each record from whichever replica's copy revalidates. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 ~replicas:2 () in
  P.append log "aaaaaaaa";
  P.append log "bbbbbbbb";
  P.append log "cccccccc";
  P.append log "dddddddd";
  P.set_head log 2;  (* live span: entries c, d at [112,160) *)
  let primary =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l")
  in
  (* rot a live payload byte on the primary ONLY, then compact *)
  flip primary ~off:(112 + 16 + 3);
  P.relocate log;
  check Alcotest.(list string) "rotted record restored from the mirror"
    [ "cccccccc"; "dddddddd" ] (P.entries log);
  check Alcotest.int "live span compacted to the front" 48 (P.used_bytes log);
  (* the relocated copy is durable, byte-identical across replicas and
     loss-free: a crash finds nothing to repair and nothing to report *)
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = P.recover log in
  check Alcotest.int "no loss" 0 (Onll_plog.Plog.report_lost r);
  check Alcotest.int "nothing left to repair" 0
    r.Onll_plog.Plog.repaired_entries;
  check Alcotest.(list string) "stable after recovery"
    [ "cccccccc"; "dddddddd" ] (P.entries log)

let test_relocate_quarantines_double_fault () =
  (* A live record corrupt in EVERY replica cannot be copied; relocate
     must quarantine it at the destination behind a skip marker — exactly
     what an in-place scrub would do — and keep the records beyond it. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 ~replicas:2 () in
  List.iter (P.append log)
    [ "aaaaaaaa"; "bbbbbbbb"; "cccccccc"; "dddddddd"; "eeeeeeee"; "ffffffff" ];
  P.set_head log 4;  (* live span: entries e, f at [160,208) *)
  let primary =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l")
  in
  let mirror =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l~1")
  in
  flip primary ~off:(160 + 16 + 3);
  flip mirror ~off:(160 + 16 + 4);  (* entry e dead in both replicas *)
  P.relocate log;
  check Alcotest.(list string) "survivor beyond the double fault kept"
    [ "ffffffff" ] (P.entries log);
  (* the quarantine is already settled: scrub and recovery find nothing
     new to repair, quarantine or report *)
  let s = P.scrub log in
  check Alcotest.int "scrub: nothing unrepairable left" 0
    s.Onll_plog.Plog.unrepairable_spans;
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = P.recover log in
  check Alcotest.int "nothing NEWLY quarantined" 0
    r.Onll_plog.Plog.quarantined_spans;
  check Alcotest.(list string) "stable" [ "ffffffff" ] (P.entries log)

(* {1 Dropping by key} *)

(* Test records carry their key in their first 8 bytes. *)
let keyed k =
  Printf.sprintf "%s-rec" (Onll_util.Codec.encode Onll_util.Codec.int k)

let key_of payload =
  if String.length payload < 8 then max_int
  else Int64.to_int (String.get_int64_le payload 0)

let test_drop_upto_by_key () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~key:key_of ~name:"l" ~capacity:4096 () in
  List.iter (fun k -> P.append log (keyed k)) [ 1; 2; 5; 3; 9 ];
  let keys () = List.map key_of (P.entries log) in
  let f0 = M.persistent_fences () in
  check Alcotest.int "drops the keys <= 2" 2 (P.drop_upto log 2);
  check Alcotest.int "one header fence" (f0 + 1) (M.persistent_fences ());
  check Alcotest.(list int) "rest kept" [ 5; 3; 9 ] (keys ());
  check Alcotest.int "stops at the first greater key" 0 (P.drop_upto log 4);
  check Alcotest.int "no fence when nothing drops" (f0 + 1)
    (M.persistent_fences ());
  check Alcotest.int "the rest" 3 (P.drop_upto log 9);
  check Alcotest.(list int) "empty" [] (keys ());
  P.append log (keyed 10);
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  ignore (P.recover log);
  check Alcotest.(list int) "the drops are durable" [ 10 ] (keys ());
  (* without [~key] every record keys to 0 *)
  let plain = P.create ~name:"plain" ~capacity:4096 () in
  List.iter (P.append plain) [ "a"; "b" ];
  check Alcotest.int "default key drops everything at 0" 2
    (P.drop_upto plain 0)

(* [drop_upto] against the rule it replaced in ONLL's checkpoint: read the
   live entries back, count the prefix whose key is <= k, and [set_head]
   that many. Seeded sequences of appends (keys roughly increasing, not
   monotone), drops, scrubs, relocations and recoveries on a mirrored log;
   a byte rotted in every replica is quarantined before the next drop by a
   relocation when one can move the live span, else by a scrub or a
   recovery — so the account must be rebuilt around skip markers. *)
let test_drop_upto_matches_entries_rule () =
  let quarantined = ref 0 and by_relocate = ref 0 and drops = ref 0 in
  for seed = 0 to 59 do
    let rng = Random.State.make [| seed |] in
    let sim = Sim.create ~max_processes:1 () in
    let module M = (val Sim.machine sim) in
    let module P = Onll_plog.Plog.Make (M) in
    let sink, events = Onll_obs.Sink.recording () in
    let log =
      P.create ~sink ~replicas:2 ~key:key_of ~name:"l" ~capacity:1024 ()
    in
    let salvage_events () =
      List.length
        (List.filter
           (fun e ->
             match e.Onll_obs.Event.kind with
             | Onll_obs.Event.Salvage { quarantined; _ } -> quarantined > 0
             | _ -> false)
           (events ()))
    in
    let regions =
      List.map
        (fun n -> Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) n))
        (P.region_names log)
    in
    let next = ref 0 in
    let salvaged r =
      quarantined := !quarantined + r.Onll_plog.Plog.quarantined_spans
    in
    let crash_recover () =
      Onll_nvm.Memory.crash (Sim.memory sim)
        ~policy:Onll_nvm.Crash_policy.Drop_all;
      salvaged (P.recover log)
    in
    for _ = 1 to 80 do
      match Random.State.int rng 12 with
      | 0 | 1 | 2 | 3 | 4 ->
          incr next;
          let k = !next + Random.State.int rng 5 - 2 in
          if P.free_bytes log >= 40 then P.append log (keyed k)
          else P.relocate log
      | 5 | 6 | 7 ->
          let k = !next - Random.State.int rng 6 in
          let before = P.entries log in
          let rec rule n = function
            | e :: rest when key_of e <= k -> rule (n + 1) rest
            | _ -> n
          in
          let expect = rule 0 before in
          let n = P.drop_upto log k in
          incr drops;
          check Alcotest.int
            (Printf.sprintf "seed %d: drop_upto %d" seed k)
            expect n;
          check Alcotest.(list string)
            (Printf.sprintf "seed %d: survivors" seed)
            (List.filteri (fun i _ -> i >= n) before)
            (P.entries log)
      | 8 -> ignore (P.scrub log)
      | 9 -> P.relocate log
      | 10 -> crash_recover ()
      | _ ->
          let live = P.live_bytes log in
          let dead = P.used_bytes log - live in
          if live > 0 then begin
            let off = 64 + dead + Random.State.int rng live in
            List.iter (fun r -> flip r ~off) regions;
            if dead > 0 && live <= dead then begin
              (* relocation reports its quarantine as a Salvage event *)
              let seen = salvage_events () in
              P.relocate log;
              if salvage_events () > seen then incr by_relocate
            end
            else if Random.State.bool rng then
              quarantined :=
                !quarantined + (P.scrub log).Onll_plog.Plog.unrepairable_spans
            else crash_recover ()
          end
    done
  done;
  check Alcotest.bool "drops were checked" true (!drops > 500);
  check Alcotest.bool "relocations quarantined" true (!by_relocate > 0);
  check Alcotest.bool "quarantines happened" true (!quarantined > 0)

let test_multiple_logs_independent () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let l0 = P.create ~name:"l0" ~capacity:1024 () in
  let l1 = P.create ~name:"l1" ~capacity:1024 () in
  P.append l0 "zero";
  P.append l1 "one";
  check Alcotest.(list string) "log 0" [ "zero" ] (P.entries l0);
  check Alcotest.(list string) "log 1" [ "one" ] (P.entries l1)

let test_binary_payloads () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let log = P.create ~name:"l" ~capacity:4096 () in
  let payload = String.init 256 Char.chr in
  P.append log payload;
  check Alcotest.(list string) "binary-safe" [ payload ] (P.entries log)

(* {1 The recovery scan's building blocks} *)

(* The per-byte definition the word-wise search must agree with. *)
let last_nonzero_ref s =
  let last = ref (-1) in
  String.iteri (fun i c -> if c <> '\000' then last := i) s;
  !last

let test_last_nonzero_every_alignment () =
  for len = 0 to 300 do
    let zeros = String.make len '\000' in
    check Alcotest.int
      (Printf.sprintf "all zeros, length %d" len)
      (-1)
      (Onll_plog.Plog.last_nonzero zeros);
    for i = 0 to len - 1 do
      (* 0x80 and friends: a set high bit must not read as a sign *)
      let c = Char.chr (if i mod 2 = 0 then 0x80 else 1 + (i mod 255)) in
      let s = String.init len (fun j -> if j = i then c else '\000') in
      check Alcotest.int
        (Printf.sprintf "one nonzero byte at %d of %d" i len)
        i
        (Onll_plog.Plog.last_nonzero s)
    done
  done

let test_last_nonzero_random () =
  let rng = Random.State.make [| 16 |] in
  for _ = 1 to 2000 do
    let len = Random.State.int rng 2048 in
    (* mostly zeros, so the last nonzero byte lands anywhere *)
    let density = 1 + Random.State.int rng 64 in
    let s =
      String.init len (fun _ ->
          if Random.State.int rng (density * 16) = 0 then
            Char.chr (1 + Random.State.int rng 255)
          else '\000')
    in
    check Alcotest.int "word-wise = per byte" (last_nonzero_ref s)
      (Onll_plog.Plog.last_nonzero s)
  done

(* The checksum as the log format defines it, over a copied frame. *)
let framed_entry_crc payload =
  let buf = Bytes.create (8 + String.length payload) in
  Bytes.set_int64_le buf 0 (Int64.of_int (String.length payload));
  Bytes.blit_string payload 0 buf 8 (String.length payload);
  Onll_util.Crc32.bytes buf ~pos:0 ~len:(Bytes.length buf)

let random_payload rng =
  String.init (1 + Random.State.int rng 300) (fun _ ->
      Char.chr (Random.State.int rng 256))

let test_entry_crc_is_framed_crc () =
  let rng = Random.State.make [| 32 |] in
  for _ = 1 to 500 do
    let p = random_payload rng in
    check Alcotest.int32 "crc(len ++ payload)" (framed_entry_crc p)
      (Onll_plog.Plog.entry_crc p)
  done

(* A log image laid down byte by byte with the framed checksum (entries
   from offset 64 under an all-zero header) must be the very image the
   log's own appends write, and must recover the same way: same entries,
   same salvage report. One middle entry is rotted so the salvage path
   runs too. *)
let test_framed_crc_image_recovers_identically () =
  let rng = Random.State.make [| 48 |] in
  let payloads = List.init 12 (fun _ -> random_payload rng) in
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_plog.Plog.Make (M) in
  let capacity = 8192 in
  let appended = P.create ~name:"new" ~capacity () in
  List.iter (P.append appended) payloads;
  let written = P.create ~name:"old" ~capacity () in
  let image = Buffer.create 4096 in
  List.iter
    (fun p ->
      let word v =
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 v;
        Buffer.add_bytes image b
      in
      word (Int64.of_int (String.length p));
      word (Int64.logand (Int64.of_int32 (framed_entry_crc p)) 0xFFFFFFFFL);
      Buffer.add_string image p)
    payloads;
  let image = Buffer.contents image in
  let region name =
    Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) name)
  in
  Onll_nvm.Memory.Region.corrupt (region "old") ~off:64
    ~len:(String.length image) ~f:(fun i _ -> image.[i]);
  let mid =
    64 + 16 + String.length (List.nth payloads 0) + 16 + 1
  in
  List.iter (fun name -> flip (region name) ~off:mid) [ "old"; "new" ];
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  check Alcotest.string "same durable bytes"
    (Onll_nvm.Memory.Region.durable_snapshot (region "new"))
    (Onll_nvm.Memory.Region.durable_snapshot (region "old"));
  let r_new = P.recover appended and r_old = P.recover written in
  let pp = Fmt.to_to_string Onll_plog.Plog.pp_salvage_report in
  check Alcotest.string "same salvage report" (pp r_new) (pp r_old);
  check Alcotest.int "the rotted entry was quarantined" 1
    r_old.Onll_plog.Plog.quarantined_spans;
  check Alcotest.(list string) "same entries" (P.entries appended)
    (P.entries written)

(* Every durable load ticks the fault hooks, so the number of loads a
   recovery makes is part of every seeded fault schedule: pin it on a
   clean log, a torn tail and an interior corruption. *)
let test_recover_load_counts () =
  let loads_of damage =
    let sim = Sim.create ~max_processes:1 () in
    let module M0 = (val Sim.machine sim) in
    let module M = Test_support.Machine_wrap.Counting_loads (M0) in
    let module P = Onll_plog.Plog.Make (M) in
    let log = P.create ~name:"l" ~capacity:4096 () in
    P.append log "aaaaaaaa";
    P.append log "bbbbbbbb";
    P.append log "cccccccc";
    let region =
      Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) "l")
    in
    (match damage with
    | `Clean -> ()
    | `Torn_tail -> flip region ~off:(112 + 16 + 3)
    | `Interior -> flip region ~off:(88 + 16 + 3));
    Onll_nvm.Memory.crash (Sim.memory sim)
      ~policy:Onll_nvm.Crash_policy.Drop_all;
    M.loads := 0;
    ignore (P.recover log);
    !M.loads
  in
  check Alcotest.int "clean log" 24 (loads_of `Clean);
  check Alcotest.int "torn tail" 23 (loads_of `Torn_tail);
  check Alcotest.int "interior corruption" 26 (loads_of `Interior)

(* Property: whatever single step the crash lands on, recovery yields a
   prefix of the appended entries; completed appends always survive. *)
let prop_recovery_is_prefix =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"crash anywhere -> recovered = prefix, fenced kept"
       ~count:150
       QCheck.(pair small_nat (int_bound 200))
       (fun (seed, crash_at) ->
         let policy =
           if seed mod 2 = 0 then Onll_nvm.Crash_policy.Drop_all
           else Onll_nvm.Crash_policy.Persist_all
         in
         let sim = Sim.create ~max_processes:1 ~crash_policy:policy () in
         let module M = (val Sim.machine sim) in
         let module P = Onll_plog.Plog.Make (M) in
         let log = P.create ~name:"l" ~capacity:65536 () in
         let completed = ref 0 in
         let all = List.init 8 (fun i -> Printf.sprintf "entry-%d-%d" seed i) in
         let strategy =
           Sched.Strategy.random_with_crash ~seed ~crash_at_step:crash_at
         in
         let proc _ =
           List.iter
             (fun e ->
               P.append log e;
               incr completed)
             all
         in
         ignore (Sim.run sim strategy [| proc |]);
         ignore (P.recover log);
         let recovered = P.entries log in
         let is_prefix =
           List.length recovered <= List.length all
           && List.for_all2
                (fun a b -> a = b)
                recovered
                (List.filteri (fun i _ -> i < List.length recovered) all)
         in
         is_prefix && List.length recovered >= !completed))

let () =
  Alcotest.run "plog"
    [
      ( "append",
        [
          Alcotest.test_case "roundtrip" `Quick test_append_entries_roundtrip;
          Alcotest.test_case "one fence per append" `Quick
            test_one_persistent_fence_per_append;
          Alcotest.test_case "durable across crash" `Quick
            test_append_durable_across_crash;
          Alcotest.test_case "binary payloads" `Quick test_binary_payloads;
          Alcotest.test_case "full raises" `Quick test_full_raises;
          Alcotest.test_case "empty payload" `Quick test_empty_payload_rejected;
          Alcotest.test_case "used/live bytes" `Quick test_used_and_live_bytes;
          Alcotest.test_case "independent logs" `Quick
            test_multiple_logs_independent;
        ] );
      ( "crash",
        [
          Alcotest.test_case "torn append rejected" `Quick
            test_torn_append_rejected;
          Alcotest.test_case "unfenced may survive (persist-all)" `Quick
            test_unfenced_append_may_survive_persist_all;
          Alcotest.test_case "unfenced lost (drop-all)" `Quick
            test_unfenced_append_lost_drop_all;
          prop_recovery_is_prefix;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "set_head compacts" `Quick test_set_head_compacts;
          Alcotest.test_case "head durable" `Quick
            test_set_head_durable_across_crash;
          Alcotest.test_case "zero and errors" `Quick
            test_set_head_zero_noop_and_errors;
          Alcotest.test_case "drop all entries" `Quick test_set_head_all_entries;
          Alcotest.test_case "torn header harmless" `Quick
            test_crash_during_set_head_keeps_a_valid_header;
          Alcotest.test_case "newer header wins (persist-all)" `Quick
            test_crash_during_set_head_newer_header_wins;
          Alcotest.test_case "drop_upto by key" `Quick test_drop_upto_by_key;
          Alcotest.test_case "drop_upto = the entries rule" `Quick
            test_drop_upto_matches_entries_rule;
        ] );
      ( "mirror",
        [
          Alcotest.test_case "roundtrip + region names" `Quick
            test_mirrored_roundtrip;
          Alcotest.test_case "one fence per mirrored append" `Quick
            test_mirrored_one_fence_per_append;
          Alcotest.test_case "interior rot repaired from mirror" `Quick
            test_mirrored_repairs_interior_rot;
          Alcotest.test_case "tail fault disambiguated and healed" `Quick
            test_mirrored_tail_fault_disambiguated;
          Alcotest.test_case "torn append tears all replicas" `Quick
            test_mirrored_torn_append_tears_all_replicas;
          Alcotest.test_case "double fault quarantined" `Quick
            test_mirrored_double_fault_quarantined;
          Alcotest.test_case "scrub heals divergence online" `Quick
            test_scrub_heals_divergence_online;
          Alcotest.test_case "scrub quarantines double fault" `Quick
            test_scrub_quarantines_double_fault;
          Alcotest.test_case "relocate sources from intact replica" `Quick
            test_relocate_sources_from_intact_replica;
          Alcotest.test_case "relocate quarantines double fault" `Quick
            test_relocate_quarantines_double_fault;
        ] );
      ( "salvage",
        [
          Alcotest.test_case "interior corruption quarantined" `Quick
            test_salvage_quarantines_interior_corruption;
          Alcotest.test_case "corrupt tail truncated" `Quick
            test_salvage_truncates_corrupt_tail;
          Alcotest.test_case "unhardened silently truncates" `Quick
            test_unhardened_recover_silently_truncates;
        ] );
      ( "scan",
        [
          Alcotest.test_case "last nonzero at every alignment" `Quick
            test_last_nonzero_every_alignment;
          Alcotest.test_case "last nonzero on random buffers" `Quick
            test_last_nonzero_random;
          Alcotest.test_case "entry crc = crc of len ++ payload" `Quick
            test_entry_crc_is_framed_crc;
          Alcotest.test_case "framed-crc image recovers identically" `Quick
            test_framed_crc_image_recovers_identically;
          Alcotest.test_case "recover load counts pinned" `Quick
            test_recover_load_counts;
        ] );
    ]
