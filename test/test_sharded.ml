open Onll_machine
open Onll_sched
module Kv = Onll_specs.Kv
module Faults = Onll_faults.Faults

let check = Alcotest.check

(* Probe for a key the router sends to shard [s] — the router is pure, so
   a key found once stays on that shard for the object's lifetime. *)
let key_for shard_of s =
  let rec go i =
    let k = Printf.sprintf "key-%d" i in
    if shard_of (Kv.Put (k, "")) = s then k else go (i + 1)
  in
  go 0

(* {1 Router determinism} *)

let test_router_deterministic_across_instances_and_crash () =
  (* The router must answer identically on independent instances and
     across a crash: recovery re-routes nothing, it just recovers each
     shard, so a key wandering between shards would orphan its history. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_sharded.Make (M) (Kv) in
  let a = C.create ~shards:4 () in
  let b = C.create ~shards:4 () in
  let keys = List.init 64 (Printf.sprintf "user:%d") in
  let route obj k = C.shard_of_update obj (Kv.Put (k, "v")) in
  let before = List.map (route a) keys in
  check
    Alcotest.(list int)
    "identical routing on an independent instance" before
    (List.map (route b) keys);
  (* every update routes with its key's reads: Get k must land where
     Put k landed, or reads would miss their own writes *)
  List.iter
    (fun k ->
      check
        Alcotest.(option int)
        "get follows put" (Some (route a k))
        (Kv.shard_of_read ~shards:4 (Kv.Get k)))
    keys;
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [| (fun _ -> List.iter (fun k -> ignore (C.update a (Kv.Put (k, k)))) keys) |]);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover a;
  check
    Alcotest.(list int)
    "identical routing after crash + recovery" before (List.map (route a) keys);
  List.iter
    (fun k -> check (Alcotest.option Alcotest.string) "binding recovered"
        (Some k)
        (match C.read a (Kv.Get k) with
        | Kv.Found v -> v
        | _ -> None))
    keys

(* {1 Fence accounting and global reads} *)

let test_one_fence_per_update_zero_per_read () =
  (* Theorem 5.1 through the partitioned object: an update runs on exactly
     one shard, so the bound survives composition verbatim — and a global
     read fans out over all shards without fencing any of them. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_sharded.Make (M) (Kv) in
  let obj = C.create ~shards:4 () in
  let n = 40 in
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           for i = 1 to n do
             match C.update obj (Kv.Put (Printf.sprintf "k%d" i, "v")) with
             | Kv.Previous None -> ()
             | _ -> Alcotest.fail "fresh key had a previous binding"
           done);
       |]);
  check Alcotest.int "one persistent fence per update" n
    (M.persistent_fences ());
  let touched =
    List.sort_uniq compare
      (List.init n (fun i ->
           C.shard_of_update obj (Kv.Put (Printf.sprintf "k%d" (i + 1), "v"))))
  in
  check Alcotest.bool "the workload actually spread over shards" true
    (List.length touched > 1);
  (* shard-routed reads and the global Size fan-out are both fence-free *)
  for i = 1 to n do
    let k = Printf.sprintf "k%d" i in
    check Alcotest.bool "read back" true
      (C.read obj (Kv.Get k) = Kv.Found (Some "v"))
  done;
  check Alcotest.bool "global size sums disjoint shards" true
    (C.read obj Kv.Size = Kv.Count n);
  check Alcotest.int "reads fenced nothing" n (M.persistent_fences ())

(* {1 Cross-shard crash audit} *)

let test_crash_on_one_shard_leaves_others_durable () =
  (* Proc 0 completes (and fences) updates routed to shard A; proc 1 is
     parked mid-update on a DIFFERENT shard — linearized there but not yet
     persisted — when the crash hits. Shard independence says the in-flight
     update on shard B cannot disturb shard A's durable history. *)
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_sharded.Make (M) (Kv) in
  let obj = C.create ~shards:4 () in
  let route op = C.shard_of_update obj op in
  let shard_a = 0 and shard_b = 1 in
  let key_a = key_for route shard_a and key_b = key_for route shard_b in
  let procs =
    [|
      (fun _ ->
        ignore (C.update obj (Kv.Put (key_a, "committed")));
        ignore (C.update obj (Kv.Put (key_a ^ "'", "committed"))));
      (fun _ -> ignore (C.update obj (Kv.Put (key_b, "in-flight"))));
    |]
  in
  let script =
    Sched.Strategy.script
      [
        Sched.Strategy.Run_to_completion 0;
        Sched.Strategy.run_until_pfence 1;  (* linearized, unpersisted *)
        Sched.Strategy.Crash_here;
      ]
  in
  (match Sim.run sim script procs with
  | Sched.World.Crashed -> ()
  | _ -> Alcotest.fail "expected the scripted crash");
  let r = C.recover_report obj in
  check Alcotest.bool "no detected loss: an unfenced op may simply vanish"
    false
    (Onll_core.Onll.Recovery_report.detected_loss r);
  check Alcotest.bool "shard A's fenced updates survived" true
    (C.read obj (Kv.Get key_a) = Kv.Found (Some "committed")
    && C.read obj (Kv.Get (key_a ^ "'")) = Kv.Found (Some "committed"));
  check Alcotest.bool "shard A is where they were recovered" true
    (List.exists (fun (s, _, _) -> s = shard_a) (C.recovered_ops obj));
  check Alcotest.bool "no stray recovery outside A and B" true
    (List.for_all
       (fun (s, _, _) -> s = shard_a || s = shard_b)
       (C.recovered_ops obj));
  check Alcotest.bool "composed object still serves" true
    (C.update obj (Kv.Put (key_b, "retry")) = Kv.Previous None
     || C.read obj (Kv.Get key_b) = Kv.Found (Some "in-flight"))

(* {1 Degraded-flag aggregation} *)

let test_degraded_flag_is_or_over_shards () =
  (* Rot confined to ONE shard's (unmirrored) log regions: that shard's
     hardened recovery reports loss and goes degraded; the others stay
     clean; the composed flag is the OR. Region names are shard-qualified
     (".s<i>"), which is what lets the fault plan aim at one shard. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_sharded.Make (M) (Kv) in
  let obj = C.create ~shards:4 () in
  let route op = C.shard_of_update obj op in
  let plan =
    {
      Faults.Plan.none with
      Faults.Plan.seed = 11;
      rot_ops_interval = 2;
      media_window = 4096;
      target =
        (fun name ->
          (* kv.s1.<inst>.plog.<proc> *)
          let sub = ".s1." in
          let n = String.length name and m = String.length sub in
          let rec at i =
            i + m <= n && (String.sub name i m = sub || at (i + 1))
          in
          at 0);
    }
  in
  let h = Faults.install (Sim.memory sim) plan in
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           for i = 1 to 200 do
             ignore
               (C.update obj (Kv.Put (key_for route (i mod 4) ^ "x", "v")))
           done);
       |]);
  Faults.set_rot h false;
  check Alcotest.bool "rot actually fired" true
    ((Faults.counters h).Faults.rot_flips > 20);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  let reports = C.recover_reports obj in
  Faults.remove h;
  check Alcotest.int "one report per shard" 4 (List.length reports);
  List.iteri
    (fun s r ->
      let lossy = Onll_core.Onll.Recovery_report.detected_loss r in
      if s = 1 then
        check Alcotest.bool "the rotted shard detected its loss" true lossy
      else check Alcotest.bool "untouched shards recovered clean" false lossy)
    reports;
  check Alcotest.bool "composed degraded flag is the OR" true (C.degraded obj);
  check Alcotest.bool "untouched shard is not itself degraded" false
    (C.Shard.degraded (C.shard obj 0))

(* {1 Detectable execution across shards} *)

let test_was_linearized_routes_by_operation () =
  (* Identities are per shard: the same (proc, seq) pair can exist on two
     shards. was_linearized takes the operation so it can ask the right
     shard — and only the shard that executed the op says yes. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_sharded.Make (M) (Kv) in
  let obj = C.create ~shards:4 () in
  let route op = C.shard_of_update obj op in
  let op_a = Kv.Put (key_for route 0, "a") in
  let op_b = Kv.Put (key_for route 1, "b") in
  let id = ref { Onll_core.Onll.id_proc = 0; id_seq = 0 } in
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           let i, _ = C.update_with_id obj op_a in
           id := i);
       |]);
  check Alcotest.bool "executed op is linearized on its shard" true
    (C.was_linearized obj op_a !id);
  check Alcotest.bool "same id asked of another shard: no" false
    (C.was_linearized obj op_b !id);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  ignore (C.recover_report obj);
  check Alcotest.bool "still linearized after recovery" true
    (C.was_linearized obj op_a !id)

let test_recovered_ops_shard_major_after_cross_shard_crash () =
  (* A workload interleaved across every shard, cut by a crash that spans
     them all: [recovered_ops] must come back shard-major (not in the
     interleaved execution order), oldest first within each shard, and
     every completed update must still answer [was_linearized] when
     routed by its operation — and only there. *)
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_sharded.Make (M) (Kv) in
  let obj = C.create ~shards:4 () in
  let route op = C.shard_of_update obj op in
  let keys_for s n =
    let rec go i acc =
      if List.length acc = n then List.rev acc
      else
        let k = Printf.sprintf "key-%d" i in
        if route (Kv.Put (k, "")) = s then go (i + 1) (k :: acc)
        else go (i + 1) acc
    in
    go 0 []
  in
  let rounds = 3 in
  let per_shard = Array.init 4 (fun s -> keys_for s rounds) in
  (* round-robin over shards: 0,1,2,3,0,1,2,3,... *)
  let ops =
    List.concat
      (List.init rounds (fun r ->
           List.init 4 (fun s ->
               Kv.Put (List.nth per_shard.(s) r, Printf.sprintf "v%d" r))))
  in
  let ids = ref [] in
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           List.iter
             (fun op ->
               let id, _ = C.update_with_id obj op in
               ids := (op, id) :: !ids)
             ops);
       |]);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  ignore (C.recover_report obj);
  let ro = C.recovered_ops obj in
  check Alcotest.int "every completed update recovered" (List.length ops)
    (List.length ro);
  let shard_seq = List.map (fun (s, _, _) -> s) ro in
  check
    Alcotest.(list int)
    "shard-major, not execution-interleaved"
    (List.sort compare shard_seq) shard_seq;
  List.iter
    (fun s ->
      let idxs =
        List.filter_map (fun (s', _, i) -> if s' = s then Some i else None) ro
      in
      check Alcotest.(list int) "oldest first within the shard"
        (List.sort_uniq compare idxs)
        idxs;
      (* the composed list is exactly the per-shard lists, tagged *)
      check Alcotest.int "agrees with the shard's own recovered_ops"
        (List.length (C.Shard.recovered_ops (C.shard obj s)))
        (List.length idxs))
    [ 0; 1; 2; 3 ];
  List.iter
    (fun (op, id) ->
      check Alcotest.bool "listed on its own shard" true
        (List.exists (fun (s, i, _) -> s = route op && i = id) ro);
      (* post-recovery answers may be floor-coarsened, but never in the
         false-negative direction: each op's own shard still says yes *)
      check Alcotest.bool "was_linearized after the cross-shard crash" true
        (C.was_linearized obj op id))
    !ids

(* {1 A transient fault escaping an update's persist} *)

(* One machine process, as `onll serve` runs: a flush storm fails an
   update on one shard, an update on another shard goes through, and the
   next update on the failed shard must finish the failed node first
   instead of tripping Prop 5.2's window bound. All three survive a crash
   that drops everything unfenced. *)
let test_update_after_escaped_fault () =
  let sim = Sim.create ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module C = Onll_sharded.Make (M) (Kv) in
  let obj = C.create ~shards:4 () in
  let k0 = key_for (C.shard_of_update obj) 0
  and k1 = key_for (C.shard_of_update obj) 1 in
  let run body =
    check Alcotest.bool "the run completes" true
      (Sim.run sim Sched.Strategy.round_robin [| body |]
      = Sched.World.Completed)
  in
  let storm =
    Faults.install mem
      {
        Faults.Plan.none with
        seed = 7;
        flush_fail_prob = 1.0;
        max_consecutive_transients = 1_000_000;
      }
  in
  run (fun _ ->
      match C.update obj (Kv.Put (k0, "a")) with
      | exception Onll_nvm.Memory.Transient_fault _ -> ()
      | _ -> Alcotest.fail "the storm never bit");
  Faults.remove storm;
  run (fun _ ->
      ignore (C.update obj (Kv.Put (k1, "b")));
      check Alcotest.bool "the failed put is seen by the next on its shard"
        true
        (C.update obj (Kv.Put (k0, "c")) = Kv.Previous (Some "a")));
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Drop_all;
  ignore (C.recover_report obj);
  check Alcotest.bool "both shards survive the crash" true
    (C.read obj (Kv.Get k0) = Kv.Found (Some "c")
    && C.read obj (Kv.Get k1) = Kv.Found (Some "b"))

let () =
  Alcotest.run "sharded"
    [
      ( "router",
        [
          Alcotest.test_case "deterministic across instances and crashes"
            `Quick test_router_deterministic_across_instances_and_crash;
        ] );
      ( "fences",
        [
          Alcotest.test_case "1 pf/update, 0 pf/read through the partition"
            `Quick test_one_fence_per_update_zero_per_read;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash on one shard leaves others durable"
            `Quick test_crash_on_one_shard_leaves_others_durable;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "flag aggregates as OR over shards" `Quick
            test_degraded_flag_is_or_over_shards;
        ] );
      ( "faults",
        [
          Alcotest.test_case "an update after an escaped persist fault"
            `Quick test_update_after_escaped_fault;
        ] );
      ( "detectable",
        [
          Alcotest.test_case "was_linearized routes by operation" `Quick
            test_was_linearized_routes_by_operation;
        ] );
      ( "recovery",
        [
          Alcotest.test_case
            "recovered_ops is shard-major after a cross-shard crash" `Quick
            test_recovered_ops_shard_major_after_cross_shard_crash;
        ] );
    ]
