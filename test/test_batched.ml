(* Group commit (E16): the construction under the combining persist
   policy ([Onll.Make_combining]). An update whose node is not the newest
   waits a bounded number of its own steps for a newer persist to cover
   it, so concurrent updates share fences. Semantics must be
   indistinguishable from the plain construction — including
   detectability across crashes landing at every step — while the fence
   cost amortises below one per update under concurrency and stays
   exactly one solo (Thm 6.3: no lock-free construction beats 1
   pf/update without concurrency to share it with). *)

open Onll_machine
module Cs = Onll_specs.Counter
module Onll = Onll_core.Onll

let check = Alcotest.check

let cfg ?(log_capacity = 1 lsl 16) ?(replicas = 1)
    ?(sink = Onll_obs.Sink.null) () =
  { Onll.Config.default with log_capacity; replicas; sink }

(* Persists and the updates their windows held, from the core's
   fuzzy-window histogram: one observation per persist. *)
let windows registry =
  match Onll_obs.Metrics.find registry "fuzzy.window" with
  | Some (Onll_obs.Metrics.Summary s) -> s
  | _ -> Alcotest.fail "no fuzzy.window histogram"

(* {1 Amortisation: the whole point of group commit} *)

(* Round-robin, 4 submitters: nodes are inserted before the first of them
   persists, so the newest one's window holds the others and its fence
   is split between them. The per-process attribution (the persister
   pays the fence, the covered pay nothing) is what the amortised metric
   measures. *)
let test_combining_amortizes_fences () =
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:4 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll.Make_combining (M) (Cs) in
  let obj = C.make (cfg ~sink ()) in
  let body _ =
    for _ = 1 to 8 do
      ignore (C.update obj Cs.Increment)
    done;
    ignore (C.read obj Cs.Get)
  in
  (match
     Sim.run sim Onll_sched.Sched.Strategy.round_robin (Array.make 4 body)
   with
  | Onll_sched.Sched.World.Completed -> ()
  | _ -> Alcotest.fail "workload did not complete");
  let v = Onll_obs.Metrics.counter_value registry in
  check Alcotest.int "all updates applied" 32 (C.read obj Cs.Get);
  check Alcotest.int "every update counted" 32 (v "ops.update");
  check Alcotest.bool "some fences were paid" true (v "fences.update" > 0);
  check Alcotest.bool
    (Printf.sprintf "amortised below 1/2 pf/update (%d fences / 32 updates)"
       (v "fences.update"))
    true
    (2 * v "fences.update" < v "ops.update");
  check Alcotest.int "reads cost no fence" 0 (v "fences.read");
  (* Every update fence is one persist, and the persisted windows held
     every update. *)
  let w = windows registry in
  check Alcotest.int "one window per update fence" (v "fences.update")
    w.Onll_obs.Metrics.hs_count;
  check Alcotest.bool "every update rode a window" true
    (w.Onll_obs.Metrics.hs_sum >= 32);
  let snap = C.snapshot obj in
  check Alcotest.int "every update is available" 32
    snap.Onll.Snapshot.latest_available_idx;
  check Alcotest.bool "windows actually combined" true
    (snap.Onll.Snapshot.max_fuzzy_window >= 2)

(* Solo, the construction degenerates to the plain bound: its node is
   always the newest, so exactly one pf per update — never zero. *)
let test_solo_degenerates_to_one_fence_per_update () =
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll.Make_combining (M) (Cs) in
  let obj = C.make (cfg ~sink ()) in
  let body _ = for _ = 1 to 10 do ignore (C.update obj Cs.Increment) done in
  ignore (Sim.run sim Onll_sched.Sched.Strategy.round_robin [| body |]);
  let v = Onll_obs.Metrics.counter_value registry in
  check Alcotest.int "10 updates" 10 (v "ops.update");
  check Alcotest.int "exactly 1 pf/update solo" 10 (v "fences.update");
  let w = windows registry in
  check
    Alcotest.(pair int int)
    "10 windows of one" (10, 10)
    (w.Onll_obs.Metrics.hs_count, w.Onll_obs.Metrics.hs_sum);
  check Alcotest.int "no window exceeded 1" 1
    (C.snapshot obj).Onll.Snapshot.max_fuzzy_window

(* The newer node's owner inserts and is never scheduled again: nothing
   will persist its window. The older process's update must still return
   within its bound, paying its own fence, and survive a crash right
   after its acknowledgement. *)
let test_stalled_owner () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll.Make_combining (M) (Cs) in
  let module Strategy = Onll_sched.Sched.Strategy in
  let obj = C.make (cfg ()) in
  let acked = ref false and fences = ref 0 in
  let body _ =
    ignore (C.update_detectable obj ~seq:0 Cs.Increment);
    acked := true;
    fences := M.persistent_fences_by ~proc:0
  in
  let insert p =
    [
      Strategy.Run_until (p, fun l -> l = Onll_sched.Sched.Prim "tvar.cas");
      Strategy.Run_steps (p, 1);
    ]
  in
  let outcome =
    Sim.run ~max_steps:10_000 sim
      (Strategy.script
         (insert 0 @ insert 1
         @ [ Strategy.Run_to_completion 0; Strategy.Crash_here ]))
      [| body; body |]
  in
  check Alcotest.bool "the older update returned, then the crash" true
    (outcome = Onll_sched.Sched.World.Crashed && !acked);
  check Alcotest.int "it paid its own fence" 1 !fences;
  ignore (C.recover_report obj);
  check Alcotest.bool "it survives the crash" true
    (C.was_linearized obj { Onll.id_proc = 0; id_seq = 0 });
  check Alcotest.bool "the stalled update does not" false
    (C.was_linearized obj { Onll.id_proc = 1; id_seq = 0 });
  check Alcotest.int "the state holds the acknowledged update" 1
    (C.current_state obj)

(* {1 Detectable execution semantics} *)

let test_seq_reuse_rejected_before_effect () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll.Make_combining (M) (Cs) in
  let obj = C.make (cfg ()) in
  let body _ =
    ignore (C.update_detectable obj ~seq:0 Cs.Increment);
    (match C.update_detectable obj ~seq:0 Cs.Increment with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "sequence reuse accepted");
    (* the rejected call took no effect — not announced, not applied *)
    check Alcotest.int "state unchanged by the rejected call" 1
      (C.read obj Cs.Get);
    ignore (C.update_detectable obj ~seq:5 Cs.Increment);
    (* seq allocation advanced past the explicit jump *)
    match C.update_detectable obj ~seq:3 Cs.Increment with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "stale sequence accepted after a jump"
  in
  ignore (Sim.run sim Onll_sched.Sched.Strategy.round_robin [| body |]);
  check Alcotest.int "two updates landed" 2 (C.read obj Cs.Get);
  check Alcotest.bool "seq 0 linearized" true
    (C.was_linearized obj { Onll.id_proc = 0; id_seq = 0 });
  check Alcotest.bool "seq 5 linearized" true
    (C.was_linearized obj { Onll.id_proc = 0; id_seq = 5 });
  check Alcotest.bool "seq 3 never executed" false
    (C.was_linearized obj { Onll.id_proc = 0; id_seq = 3 })

(* {1 Crash at every step of the combining protocol} *)

(* Drive 3 concurrent submitters into shared windows and crash at every
   scheduler step in turn. Whatever the crash cuts — insert, the wait,
   the window's fence, the marking, acknowledgement — recovery must
   satisfy:

   - {b no partial acks}: every acknowledged update is recovered, exactly
     once (a crash before a window's fence loses the whole unfenced
     window, and since nothing in it was acknowledged, that loss is
     invisible here);
   - {b all-or-nothing windows}: the adopted history is gapless — a torn
     window record fails its CRC frame whole, so no prefix of a window
     is ever adopted (no gaps, no drops, no disagreements on clean media);
   - {b idempotence}: re-recovery adopts the identical history;
   - {b consistency}: the recovered state is exactly the fold of the
     recovered history;
   - {b liveness}: the recovered object completes a post-crash era.

   Across the sweep both crash windows must actually occur: some run
   loses an unacknowledged tail (crash before the fence), some run
   recovers an update that was durable but never acknowledged (crash
   after the fence, before the ack) — otherwise the sweep never
   exercised the protocol it claims to. *)
let crash_sweep ~replicas () =
  let saw_tail_lost = ref false in
  let saw_unacked_recovered = ref false in
  let crashed_runs = ref 0 in
  for crash_at = 2 to 90 do
    let sim =
      Sim.create ~max_processes:3
        ~crash_policy:Onll_nvm.Crash_policy.Drop_all ()
    in
    let module M = (val Sim.machine sim) in
    let module C = Onll.Make_combining (M) (Cs) in
    let obj = C.make (cfg ~replicas ()) in
    let invoked = ref [] in
    let completed = ref [] in
    let body p _ =
      for seq = 0 to 2 do
        let id = { Onll.id_proc = p; id_seq = seq } in
        invoked := id :: !invoked;
        ignore (C.update_detectable obj ~seq Cs.Increment);
        completed := id :: !completed
      done
    in
    let outcome =
      Sim.run sim
        (Onll_sched.Sched.Strategy.random_with_crash ~seed:crash_at
           ~crash_at_step:crash_at)
        (Array.init 3 (fun p -> body p))
    in
    if outcome = Onll_sched.Sched.World.Crashed then begin
      incr crashed_runs;
      let r = C.recover_report obj in
      let fail_at fmt =
        Format.kasprintf
          (fun s -> Alcotest.failf "crash at step %d: %s" crash_at s)
          fmt
      in
      (* all-or-nothing: clean media, so the adopted history is gapless *)
      if r.Onll.Recovery_report.gap_indices <> [] then
        fail_at "recovery found gaps — a window was adopted partially";
      if r.Onll.Recovery_report.dropped <> [] then
        fail_at "recovery dropped operations on clean media";
      if r.Onll.Recovery_report.disagreements <> [] then
        fail_at "recovery found disagreements on clean media";
      if r.Onll.Recovery_report.decode_failures <> 0 then
        fail_at "undecodable record on clean media";
      let ops = C.recovered_ops obj in
      (* no partial acks: acknowledged => recovered exactly once *)
      List.iter
        (fun id ->
          if not (C.was_linearized obj id) then
            fail_at "acknowledged update %a lost" Onll.pp_op_id id;
          match
            List.length (List.filter (fun (id', _) -> id' = id) ops)
          with
          | 1 -> ()
          | n ->
              fail_at "acknowledged update %a recovered %d times"
                Onll.pp_op_id id n)
        !completed;
      (* idempotence *)
      ignore (C.recover_report obj);
      if C.recovered_ops obj <> ops then fail_at "re-recovery disagreed";
      (* consistency: counter state = number of recovered increments *)
      check Alcotest.int
        (Printf.sprintf "crash at step %d: state is the recovered fold"
           crash_at)
        (List.length ops) (C.read obj Cs.Get);
      (* classify which side of the shared fence this crash landed on *)
      List.iter
        (fun id ->
          if not (List.mem id !completed) then
            if C.was_linearized obj id then saw_unacked_recovered := true
            else saw_tail_lost := true)
        !invoked;
      (* liveness *)
      let post _ = for _ = 1 to 2 do ignore (C.update obj Cs.Increment) done in
      match Sim.run sim Onll_sched.Sched.Strategy.round_robin [| post |] with
      | Onll_sched.Sched.World.Completed -> ()
      | _ -> fail_at "post-crash era did not complete"
    end
  done;
  check Alcotest.bool "sweep produced crashes" true (!crashed_runs > 40);
  check Alcotest.bool
    "some crash lost an unacknowledged (unfenced) window" true
    !saw_tail_lost;
  check Alcotest.bool
    "some crash recovered a durable-but-unacknowledged update" true
    !saw_unacked_recovered

let test_crash_at_every_step () = crash_sweep ~replicas:1 ()
let test_crash_at_every_step_mirrored () = crash_sweep ~replicas:2 ()

(* {1 Checkpointing and compaction} *)

let test_compaction_preserves_detectability () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll.Make_combining (M) (Cs) in
  (* 240 updates through a 2 KiB log: completion alone proves the
     checkpoint-compact-relocate path ran many times over. *)
  let obj = C.make (cfg ~log_capacity:2048 ()) in
  let per_proc = 120 in
  let body _ =
    for _ = 1 to per_proc do
      ignore (C.update obj Cs.Increment)
    done
  in
  (match
     Sim.run sim Onll_sched.Sched.Strategy.round_robin (Array.make 2 body)
   with
  | Onll_sched.Sched.World.Completed -> ()
  | _ -> Alcotest.fail "workload did not survive log pressure");
  check Alcotest.int "no update lost to compaction" (2 * per_proc)
    (C.read obj Cs.Get);
  (* Detectability is answered from sequence floors once the history
     behind a checkpoint is gone — every pre-compaction id still
     acknowledges. *)
  for p = 0 to 1 do
    for seq = 0 to per_proc - 1 do
      if
        not (C.was_linearized obj { Onll.id_proc = p; id_seq = seq })
      then
        Alcotest.failf "update (%d,%d) no longer detectable after compaction"
          p seq
    done
  done;
  check Alcotest.bool "never-executed id stays undetected" false
    (C.was_linearized obj { Onll.id_proc = 0; id_seq = per_proc });
  let snap = C.snapshot obj in
  check Alcotest.int "one log per process" 2
    (List.length snap.Onll.Snapshot.logs);
  check Alcotest.int "watermark covers every update" (2 * per_proc)
    snap.Onll.Snapshot.latest_available_idx

(* {1 An entry recovery cannot decode} *)

(* Recovery counts the undecodable record and moves on; a snapshot counts
   it as 0 operations at every step. Its key comes from the record header,
   so it survives the first checkpoint (which covers only [a]) and the
   checkpoint that covers [c] drops it: the next recovery no longer
   reports it. The first recovery also drops [b], stranded above the
   entry's hole, from the log: [c] then takes index 2 and [b] never comes
   back. *)
let test_undecodable_entry_kept () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll.Make_combining (M) (Test_support.Poisoned_kv) in
  let obj = C.make (cfg ()) in
  let put k = ignore (C.update obj (Onll_specs.Kv.Put (k, "v"))) in
  let recover_failures () =
    Onll_nvm.Memory.crash (Sim.memory sim)
      ~policy:Onll_nvm.Crash_policy.Drop_all;
    (C.recover_report obj).Onll.Recovery_report.decode_failures
  in
  let logged_ops after =
    match C.snapshot obj with
    | { Onll.Snapshot.logs = [ l ]; _ } ->
        List.fold_left ( + ) 0 l.Onll.Snapshot.ops_per_entry
    | _ -> Alcotest.failf "snapshot after %s: one log expected" after
  in
  List.iter put [ "a"; "poison"; "b" ];
  check Alcotest.int "recovery counts the entry" 1 (recover_failures ());
  check Alcotest.int "snapshot after recovery" 1 (logged_ops "recovery");
  ignore (C.checkpoint obj);
  check Alcotest.int "snapshot after a checkpoint" 0
    (logged_ops "checkpoint");
  put "c";
  check Alcotest.int "snapshot after an update" 1 (logged_ops "update");
  ignore (C.checkpoint obj);
  check Alcotest.int "snapshot after the dropping checkpoint" 0
    (logged_ops "second checkpoint");
  check Alcotest.int "the dropped entry is gone" 0 (recover_failures ());
  check Alcotest.int "snapshot after the second recovery" 0
    (logged_ops "second recovery");
  check Alcotest.bool "b stays dropped" true
    (C.read obj (Onll_specs.Kv.Get "b") = Onll_specs.Kv.Found None);
  check Alcotest.bool "c survives" true
    (C.read obj (Onll_specs.Kv.Get "c") = Onll_specs.Kv.Found (Some "v"))

(* A degraded recovery drops [b] (p0 seq 2), stranded above the
   undecodable entry's hole. A checkpoint that covers [c] (seq 3) then
   raises p0's floor past [b], which must still answer as not linearized,
   also after a further crash and recovery. Both engines share the rule,
   so the probe runs over each. *)
module type KV_CONSTRUCTION =
  Onll.CONSTRUCTION
    with type update_op = Onll_specs.Kv.update_op
     and type read_op = Onll_specs.Kv.read_op
     and type value = Onll_specs.Kv.value

let test_dropped_op_stays_unlinearized () =
  let probe name build =
    let sim = Sim.create ~max_processes:1 () in
    let module M = (val Sim.machine sim) in
    let module C = (val build (module M : Machine_sig.S) : KV_CONSTRUCTION) in
    let module Kv = Onll_specs.Kv in
    let obj = C.make (cfg ()) in
    let put k = fst (C.update_with_id obj (Kv.Put (k, "v"))) in
    let crash_recover () =
      Onll_nvm.Memory.crash (Sim.memory sim)
        ~policy:Onll_nvm.Crash_policy.Drop_all;
      ignore (C.recover_report obj)
    in
    let b = List.nth (List.map put [ "a"; "poison"; "b" ]) 2 in
    crash_recover ();
    ignore (C.checkpoint obj);
    let c = put "c" in
    ignore (C.checkpoint obj);
    check Alcotest.bool (name ^ ": b not linearized past the floor") false
      (C.was_linearized obj b);
    crash_recover ();
    check Alcotest.bool (name ^ ": b stays dropped") true
      (C.read obj (Kv.Get "b") = Kv.Found None);
    check Alcotest.bool (name ^ ": b not linearized after a recovery") false
      (C.was_linearized obj b);
    check Alcotest.bool (name ^ ": c is linearized") true
      (C.was_linearized obj c)
  in
  probe "core" (fun (module M : Machine_sig.S) ->
      (module Onll.Make (M) (Test_support.Poisoned_kv)
      : KV_CONSTRUCTION));
  probe "group commit" (fun (module M : Machine_sig.S) ->
      (module Onll.Make_combining (M) (Test_support.Poisoned_kv)
      : KV_CONSTRUCTION))

(* The undecodable record keys to its last index like any other, so the
   auto-compaction after it drops it and the log keeps making room: 50
   log capacities of updates (every record is longer than its
   32-byte header) without [Log_full]. *)
let test_undecodable_entry_compacted () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll.Make_combining (M) (Test_support.Poisoned_kv) in
  let log_capacity = 2048 in
  let obj = C.make (cfg ~log_capacity ()) in
  let put k = ignore (C.update obj (Onll_specs.Kv.Put (k, "v"))) in
  List.iter put [ "a"; "poison" ];
  for i = 1 to 50 * log_capacity / 32 do
    put (string_of_int (i mod 5))
  done;
  check Alcotest.bool "the last key is there" true
    (C.read obj (Onll_specs.Kv.Get "4") = Onll_specs.Kv.Found (Some "v"))

(* {1 Escaping faults and crashes} *)

(* A flush storm on every region: the newest node's persist times out and
   the fault escapes its update. The older process waiting to be covered
   must not wait on it for good: its bound runs out, its own persist
   meets the storm too, and once the storm ends each process's next
   update finishes its failed node and completes. *)
let test_escaping_fault_strands_no_waiter () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll.Make_combining (M) (Cs) in
  let obj = C.make (cfg ()) in
  let run body =
    match
      Sim.run ~max_steps:200_000 sim Onll_sched.Sched.Strategy.round_robin
        [| body; body |]
    with
    | Onll_sched.Sched.World.Completed -> ()
    | _ -> Alcotest.fail "simulated body did not complete"
  in
  let storm =
    Onll_faults.Faults.install (Sim.memory sim)
      {
        Onll_faults.Faults.Plan.none with
        seed = 7;
        flush_fail_prob = 1.0;
        max_consecutive_transients = 1_000_000;
      }
  in
  let escaped = ref 0 in
  run (fun _ ->
      match C.update obj Cs.Increment with
      | _ -> Alcotest.fail "the storm never bit"
      | exception Onll_nvm.Memory.Transient_fault _ -> incr escaped);
  check Alcotest.int "the fault escaped both updates" 2 !escaped;
  Onll_faults.Faults.remove storm;
  run (fun _ -> ignore (C.update obj Cs.Increment));
  check Alcotest.int "the next updates complete, and finish the failed" 4
    (C.read obj Cs.Get)

(* A crash just before a checkpoint's first persistent fence: the kill
   must pass through untouched, and the recovered object serves on. *)
let test_crash_inside_checkpoint () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll.Make_combining (M) (Cs) in
  let module Strategy = Onll_sched.Sched.Strategy in
  let obj = C.make (cfg ()) in
  let body _ =
    for _ = 1 to 3 do
      ignore (C.update obj Cs.Increment)
    done
  in
  (match Sim.run sim Strategy.round_robin [| body |] with
  | Onll_sched.Sched.World.Completed -> ()
  | _ -> Alcotest.fail "updates did not complete");
  (match
     Sim.run sim
       (Strategy.script [ Strategy.run_until_pfence 0; Strategy.Crash_here ])
       [| (fun _ -> ignore (C.checkpoint obj)) |]
   with
  | Onll_sched.Sched.World.Crashed -> ()
  | _ -> Alcotest.fail "the crash inside the checkpoint did not land");
  ignore (C.recover_report obj);
  check Alcotest.int "recovery restores the value" 3 (C.read obj Cs.Get);
  (match
     Sim.run ~max_steps:200_000 sim Strategy.round_robin
       [| (fun _ -> ignore (C.update obj Cs.Increment)) |]
   with
  | Onll_sched.Sched.World.Completed -> ()
  | _ -> Alcotest.fail "update after recovery did not complete");
  check Alcotest.int "and the object serves on" 4 (C.read obj Cs.Get)

(* {1 The chaos arms (media faults, nested recovery crashes)} *)

let test_batched_chaos_arms () =
  let module Ch = Test_support.Chaos.Make (Onll_specs.Kv) in
  let run plan =
    Ch.run ~plan ~gen_update:Test_support.Gen.Kv.update
      ~gen_read:Test_support.Gen.Kv.read ()
  in
  for seed = 1 to 4 do
    let r = run (Test_support.Chaos_harness.batched_plan_of_seed seed) in
    check Alcotest.(list string)
      (Printf.sprintf "batched seed %d clean" seed)
      [] r.Test_support.Chaos.violations;
    let r =
      run (Test_support.Chaos_harness.batched_mirrored_plan_of_seed seed)
    in
    check Alcotest.(list string)
      (Printf.sprintf "batched+mirrored seed %d clean" seed)
      [] r.Test_support.Chaos.violations;
    (* the E13 bar composed with group commit: a primary-only fault on a
       log costs nothing at all *)
    check Alcotest.int
      (Printf.sprintf "batched+mirrored seed %d lost nothing" seed)
      0
      (r.Test_support.Chaos.lost_reported
     + r.Test_support.Chaos.tail_ambiguous)
  done

let () =
  Alcotest.run "batched"
    [
      ( "amortisation",
        [
          Alcotest.test_case "concurrent submitters share the fence" `Quick
            test_combining_amortizes_fences;
          Alcotest.test_case "solo degenerates to exactly 1 pf/update"
            `Quick test_solo_degenerates_to_one_fence_per_update;
          Alcotest.test_case "a stalled newer owner costs one own fence"
            `Quick test_stalled_owner;
        ] );
      ( "detectability",
        [
          Alcotest.test_case "sequence reuse rejected before effect" `Quick
            test_seq_reuse_rejected_before_effect;
          Alcotest.test_case "compaction preserves detectability" `Quick
            test_compaction_preserves_detectability;
        ] );
      ( "crash-mid-batch",
        [
          Alcotest.test_case "crash at every step of the batch protocol"
            `Quick test_crash_at_every_step;
          Alcotest.test_case "crash at every step (mirrored log)" `Quick
            test_crash_at_every_step_mirrored;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "an undecodable entry survives checkpoints"
            `Quick test_undecodable_entry_kept;
          Alcotest.test_case "an undecodable entry does not stall compaction"
            `Quick test_undecodable_entry_compacted;
          Alcotest.test_case "a dropped operation stays unlinearized" `Quick
            test_dropped_op_stays_unlinearized;
        ] );
      ( "escapes",
        [
          Alcotest.test_case "an escaping fault strands no waiter" `Quick
            test_escaping_fault_strands_no_waiter;
          Alcotest.test_case "a crash inside a checkpoint" `Quick
            test_crash_inside_checkpoint;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "batched and batched+mirrored arms clean"
            `Quick test_batched_chaos_arms;
        ] );
    ]
