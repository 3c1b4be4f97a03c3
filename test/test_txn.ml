(* Cross-shard atomic transactions (E19): one coordinator fence per
   transaction, all-or-nothing across any crash point, helper-committed
   staging, the single-operation fast path, and coordinator truncation. *)

open Onll_machine
open Onll_sched
module Kv = Onll_specs.Kv

let check = Alcotest.check

(* Probe for the [n]-th key the router sends to shard [s]. *)
let key_for shard_of ?(nth = 0) s =
  let rec go i left =
    let k = Printf.sprintf "key-%d" i in
    if shard_of (Kv.Put (k, "")) = s then
      if left = 0 then k else go (i + 1) (left - 1)
    else go (i + 1) left
  in
  go 0 nth

let got = function Kv.Found v -> v | _ -> Alcotest.fail "expected Found"

(* {1 Fence accounting} *)

let test_one_fence_per_txn () =
  (* The headline: a multi-shard transaction costs exactly one persistent
     fence — the coordinator commit append — whatever the participant
     count; 2PC would pay participants + 1. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module Tx = Onll_txn.Make (M) (Kv) in
  let obj = Tx.create ~shards:4 () in
  let route op = Tx.Sh.shard_of_update (Tx.sharded obj) op in
  let a = key_for route 0 and b = key_for route 1 in
  let four =
    List.init 4 (fun s -> Kv.Put (key_for route ~nth:1 s, "4way"))
  in
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           (* fund: two plain updates, one fence each *)
           ignore (Tx.update obj (Kv.Put (a, "100")));
           ignore (Tx.update obj (Kv.Put (b, "100")));
           check Alcotest.int "funding fenced once per update" 2
             (M.persistent_fences ());
           (* a 2-shard transfer: one fence *)
           (match Tx.txn obj [ Kv.Put (a, "60"); Kv.Put (b, "140") ] with
           | [ Kv.Previous (Some "100"); Kv.Previous (Some "100") ] -> ()
           | _ -> Alcotest.fail "transfer values");
           check Alcotest.int "one fence for the 2-shard txn" 3
             (M.persistent_fences ());
           check Alcotest.int "participants spanned 2 shards" 2
             (List.length
                (Tx.participants obj [ Kv.Put (a, ""); Kv.Put (b, "") ]));
           (* a 4-shard transaction: still one fence *)
           ignore (Tx.txn obj four);
           check Alcotest.int "one fence for the 4-shard txn" 4
             (M.persistent_fences ()));
       |]);
  check Alcotest.bool "transfer visible" true
    (got (Tx.read obj (Kv.Get a)) = Some "60"
    && got (Tx.read obj (Kv.Get b)) = Some "140");
  check Alcotest.int "reads fenced nothing" 4 (M.persistent_fences ());
  check Alcotest.int "two commit records live" 2 (Tx.coordinator_entries obj)

let test_same_shard_multi_op_txn_is_atomic_and_ordered () =
  (* Two operations on ONE shard still take the coordinator path (partial
     application across a crash would otherwise be possible) and apply in
     program order under one fence. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module Tx = Onll_txn.Make (M) (Kv) in
  let obj = Tx.create ~shards:4 () in
  let route op = Tx.Sh.shard_of_update (Tx.sharded obj) op in
  let k = key_for route 2 in
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           (match Tx.txn obj [ Kv.Put (k, "1"); Kv.Put (k, "2") ] with
           | [ Kv.Previous None; Kv.Previous (Some "1") ] -> ()
           | _ -> Alcotest.fail "program-order values");
           check Alcotest.int "one fence for the same-shard pair" 1
             (M.persistent_fences ()));
       |]);
  check Alcotest.bool "second write wins" true
    (got (Tx.read obj (Kv.Get k)) = Some "2");
  check Alcotest.int "it used the coordinator" 1 (Tx.coordinator_entries obj)

(* {1 The single-shard fast path (regression)} *)

let test_single_op_txn_degenerates_to_fast_path () =
  (* A transaction touching one shard with one operation is a plain
     sharded update: no coordinator record, exactly one fence. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module Tx = Onll_txn.Make (M) (Kv) in
  let obj = Tx.create ~shards:4 () in
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           (match Tx.txn obj [ Kv.Put ("solo", "v") ] with
           | [ Kv.Previous None ] -> ()
           | _ -> Alcotest.fail "fast-path value");
           check Alcotest.int "exactly one fence" 1 (M.persistent_fences ());
           check Alcotest.int "no coordinator record" 0
             (Tx.coordinator_entries obj);
           check Alcotest.int "empty txn is free" 0
             (List.length (Tx.txn obj [])));
       |]);
  check Alcotest.bool "applied" true
    (got (Tx.read obj (Kv.Get "solo")) = Some "v");
  (* and after a crash it recovers like any sharded update *)
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = Tx.recover_report obj in
  check Alcotest.bool "clean recovery" true
    (Onll_core.Onll.Recovery_report.clean r);
  check Alcotest.bool "still applied" true
    (got (Tx.read obj (Kv.Get "solo")) = Some "v")

let test_txn_detectable_rejects_misuse () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module Tx = Onll_txn.Make (M) (Kv) in
  let obj = Tx.create ~shards:4 () in
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           let pair = [ Kv.Put ("x", "1"); Kv.Put ("y", "1") ] in
           (try
              ignore (Tx.txn_detectable obj ~seq:0 [ Kv.Put ("x", "1") ]);
              Alcotest.fail "singleton accepted"
            with Invalid_argument _ -> ());
           ignore (Tx.txn_detectable obj ~seq:0 pair);
           (* reuse is rejected before any effect *)
           (try
              ignore (Tx.txn_detectable obj ~seq:0 pair);
              Alcotest.fail "sequence reuse accepted"
            with Invalid_argument _ -> ());
           check Alcotest.int "one committed txn, not two" 1
             (Tx.coordinator_entries obj));
       |])

(* {1 Crash at every coordinator step} *)

(* Fund two accounts on distinct shards (two fences), then transfer
   between them with [txn_detectable ~seq:0] (one fence). Crash parked at
   each successive persistent-fence point [k]; after recovery the
   transfer must be all-or-nothing, detectable, idempotent under
   re-recovery, and the object live. *)
let transfer_crash_at ~replicas k =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module Tx = Onll_txn.Make (M) (Kv) in
  let obj = Tx.create ~shards:4 ~replicas () in
  let route op = Tx.Sh.shard_of_update (Tx.sharded obj) op in
  let a = key_for route 0 and b = key_for route 1 in
  let post_a = "60" and post_b = "140" in
  let procs =
    [|
      (fun _ ->
        ignore (Tx.update obj (Kv.Put (a, "100")));
        ignore (Tx.update obj (Kv.Put (b, "100")));
        ignore
          (Tx.txn_detectable obj ~seq:0
             [ Kv.Put (a, post_a); Kv.Put (b, post_b) ]));
    |]
  in
  let script =
    Sched.Strategy.script
      (List.init k (fun _ -> Sched.Strategy.run_until_pfence 0)
      @ [ Sched.Strategy.Crash_here ])
  in
  (match Sim.run sim script procs with
  | Sched.World.Crashed -> ()
  | _ -> Alcotest.fail "expected the scripted crash");
  let r = Tx.recover_report obj in
  check Alcotest.bool
    (Printf.sprintf "clean recovery at step %d" k)
    true
    (Onll_core.Onll.Recovery_report.clean r);
  let committed =
    Tx.txn_was_committed obj { Onll_txn.txn_proc = 0; txn_seq = 0 }
  in
  let va = got (Tx.read obj (Kv.Get a)) and vb = got (Tx.read obj (Kv.Get b)) in
  if committed then (
    check Alcotest.(option string) "committed: debit visible" (Some post_a) va;
    check Alcotest.(option string) "committed: credit visible" (Some post_b) vb)
  else (
    check Alcotest.bool "uncommitted: no debit" true (va <> Some post_a);
    check Alcotest.bool "uncommitted: no credit" true (vb <> Some post_b));
  (* re-recovery converges: same adopted operations at the same indices *)
  let ops1 = Tx.recovered_ops obj in
  ignore (Tx.recover_report obj);
  check Alcotest.bool "idempotent re-recovery" true
    (ops1 = Tx.recovered_ops obj);
  if committed then
    check Alcotest.(option string) "still committed after re-recovery"
      (Some post_a)
      (got (Tx.read obj (Kv.Get a)));
  (* liveness: the object still serves transactions *)
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           ignore (Tx.txn obj [ Kv.Put (a, "1"); Kv.Put (b, "2") ]));
       |]);
  check Alcotest.bool "post-recovery txn applied" true
    (got (Tx.read obj (Kv.Get a)) = Some "1"
    && got (Tx.read obj (Kv.Get b)) = Some "2")

let test_crash_at_every_step_plain () =
  for k = 1 to 4 do
    transfer_crash_at ~replicas:1 k
  done

let test_crash_at_every_step_mirrored () =
  for k = 1 to 4 do
    transfer_crash_at ~replicas:2 k
  done

(* {1 Helper-committed transactions} *)

let test_helper_persisting_a_staged_sub_commits_the_txn () =
  (* The coordinator is parked after staging, BEFORE its commit fence, so
     the commit record itself is lost in the crash. A concurrent update
     on one participant shard persists the staged sub-operation in its
     own fuzzy window — and because staged envelopes carry the commit
     payload, that one fenced record commits the WHOLE transaction:
     recovery must apply the sibling on the other shard too. *)
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module Tx = Onll_txn.Make (M) (Kv) in
  let obj = Tx.create ~shards:4 () in
  let route op = Tx.Sh.shard_of_update (Tx.sharded obj) op in
  let a = key_for route 0 and b = key_for route 1 in
  let helper_key = key_for route ~nth:1 0 in
  let procs =
    [|
      (fun _ ->
        ignore
          (Tx.txn_detectable obj ~seq:0
             [ Kv.Put (a, "60"); Kv.Put (b, "140") ]));
      (fun _ -> ignore (Tx.update obj (Kv.Put (helper_key, "helper"))));
    |]
  in
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.run_until_pfence 0;  (* staged, commit unfenced *)
        Sched.Strategy.Run_to_completion 1;  (* helps, fences, returns *)
        Sched.Strategy.Crash_here;
      ]
  in
  (match Sim.run sim script procs with
  | Sched.World.Crashed -> ()
  | _ -> Alcotest.fail "expected the scripted crash");
  let r = Tx.recover_report obj in
  check Alcotest.bool "clean recovery" true
    (Onll_core.Onll.Recovery_report.clean r);
  check Alcotest.bool "helper-committed: the txn is committed" true
    (Tx.txn_was_committed obj { Onll_txn.txn_proc = 0; txn_seq = 0 });
  check Alcotest.(option string) "helped sub visible" (Some "60")
    (got (Tx.read obj (Kv.Get a)));
  check Alcotest.(option string) "sibling shard swept in" (Some "140")
    (got (Tx.read obj (Kv.Get b)));
  check Alcotest.(option string) "the helper's own update survived"
    (Some "helper")
    (got (Tx.read obj (Kv.Get helper_key)));
  (* nested re-recovery converges on the same answer *)
  let ops1 = Tx.recovered_ops obj in
  ignore (Tx.recover_report obj);
  check Alcotest.bool "idempotent" true (ops1 = Tx.recovered_ops obj)

(* {1 Coordinator truncation} *)

let test_compact_truncates_covered_commit_records () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module Tx = Onll_txn.Make (M) (Kv) in
  let obj = Tx.create ~shards:4 () in
  let route op = Tx.Sh.shard_of_update (Tx.sharded obj) op in
  let a = key_for route 0 and b = key_for route 1 in
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           for i = 1 to 8 do
             ignore
               (Tx.txn obj
                  [
                    Kv.Put (a, string_of_int i);
                    Kv.Put (b, string_of_int (-i));
                  ])
           done;
           check Alcotest.int "records before compaction" 8
             (Tx.coordinator_entries obj);
           Tx.compact obj;
           check Alcotest.int "all covered records truncated" 0
             (Tx.coordinator_entries obj));
       |]);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = Tx.recover_report obj in
  check Alcotest.bool "clean recovery from checkpoints" true
    (Onll_core.Onll.Recovery_report.clean r);
  check Alcotest.bool "state intact" true
    (got (Tx.read obj (Kv.Get a)) = Some "8"
    && got (Tx.read obj (Kv.Get b)) = Some "-8")

(* {1 The E19 campaign} *)

(* A slice of the E19 campaign: plain and mirrored crash sweeps stay
   all-or-nothing, and each arm's no-sweep calibration is caught. *)
let test_e19_campaign_slice () =
  let module Tc = Test_support.Txn_chaos in
  List.iter
    (fun (name, plan_of) ->
      check Alcotest.(list string) (name ^ ": every requirement holds") []
        (Test_support.Campaign.unmet
           (Tc.one ~name ~seeds:6 ~calibration_seeds:8 plan_of)))
    [ ("txn", Tc.plan_of_seed); ("txn/mirrored", Tc.mirrored_plan_of_seed) ]

let () =
  Alcotest.run "txn"
    [
      ( "fences",
        [
          Alcotest.test_case "1 fence per multi-shard txn" `Quick
            test_one_fence_per_txn;
          Alcotest.test_case "same-shard pair: coordinated, ordered" `Quick
            test_same_shard_multi_op_txn_is_atomic_and_ordered;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "single op: no coordinator record, 1 fence"
            `Quick test_single_op_txn_degenerates_to_fast_path;
          Alcotest.test_case "txn_detectable misuse rejected" `Quick
            test_txn_detectable_rejects_misuse;
        ] );
      ( "crash-steps",
        [
          Alcotest.test_case "all-or-nothing at every step (plain)" `Quick
            test_crash_at_every_step_plain;
          Alcotest.test_case "all-or-nothing at every step (mirrored)" `Quick
            test_crash_at_every_step_mirrored;
          Alcotest.test_case "E19 campaign slice: clean, calibration caught"
            `Quick test_e19_campaign_slice;
        ] );
      ( "helping",
        [
          Alcotest.test_case "helper-persisted staging commits the txn"
            `Quick test_helper_persisting_a_staged_sub_commits_the_txn;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "covered commit records truncate" `Quick
            test_compact_truncates_covered_commit_records;
        ] );
    ]
