(** Cross-cutting property tests (qcheck): equivalences between every
    durable implementation and the pure sequential model, recovery-prefix
    properties under randomized crashes, reclamation-anytime invariance,
    and self-tests of the checker on generated histories. *)

open Onll_machine
open Onll_util
module Cs = Onll_specs.Counter

let qcheck = QCheck_alcotest.to_alcotest

(* Interpret a seeded op sequence both through an implementation and
   through the pure model; every value must agree. *)
let sequential_equiv (type s u r v)
    (module S : Onll_core.Spec.S
      with type state = s
       and type update_op = u
       and type read_op = r
       and type value = v) ~gen_update ~gen_read ~(driver : int -> (u -> v) * (r -> v))
    seed =
  let rng = Splitmix.create seed in
  let update, read = driver seed in
  let model = ref S.initial in
  let steps = 25 in
  let ok = ref true in
  for k = 1 to steps do
    if k mod 3 = 0 then begin
      let rop = gen_read rng in
      let expected = S.read !model rop in
      if not (S.equal_value (read rop) expected) then ok := false
    end
    else begin
      let op = gen_update rng in
      let st', expected = S.apply !model op in
      model := st';
      if not (S.equal_value (update op) expected) then ok := false
    end
  done;
  !ok

let onll_driver (type s u r v)
    (module S : Onll_core.Spec.S
      with type state = s
       and type update_op = u
       and type read_op = r
       and type value = v) ~wait_free _seed : (u -> v) * (r -> v)
    =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  if wait_free then begin
    let module C = Onll_core.Onll.Make_wait_free (M) (S) in
    let obj = C.make Onll_core.Onll.Config.default in
    (C.update obj, C.read obj)
  end
  else begin
    let module C = Onll_core.Onll.Make (M) (S) in
    let obj = C.make Onll_core.Onll.Config.default in
    (C.update obj, C.read obj)
  end

let equiv_test (type s u r v) name ~driver
    (module S : Onll_core.Spec.S
      with type state = s
       and type update_op = u
       and type read_op = r
       and type value = v) ~(gen_update : Splitmix.t -> u)
    ~(gen_read : Splitmix.t -> r) =
  qcheck
    (QCheck.Test.make ~name ~count:60 QCheck.small_nat (fun seed ->
         sequential_equiv (module S) ~gen_update ~gen_read ~driver seed))

(* {1 Sequential equivalence: every implementation = the model} *)

let prop_onll_counter =
  equiv_test "onll counter = model"
    ~driver:(onll_driver (module Cs) ~wait_free:false)
    (module Cs)
    ~gen_update:Test_support.Gen.Counter.update
    ~gen_read:Test_support.Gen.Counter.read

let prop_onll_kv =
  equiv_test "onll kv = model"
    ~driver:(onll_driver (module Onll_specs.Kv) ~wait_free:false)
    (module Onll_specs.Kv)
    ~gen_update:Test_support.Gen.Kv.update ~gen_read:Test_support.Gen.Kv.read

let prop_onll_wf_queue =
  equiv_test "onll-wait-free queue = model"
    ~driver:
      (onll_driver
         (module Onll_specs.Queue_spec)
         ~wait_free:true)
    (module Onll_specs.Queue_spec)
    ~gen_update:Test_support.Gen.Queue.update
    ~gen_read:Test_support.Gen.Queue.read

let prop_onll_wf_ledger =
  equiv_test "onll-wait-free ledger = model"
    ~driver:(onll_driver (module Onll_specs.Ledger) ~wait_free:true)
    (module Onll_specs.Ledger)
    ~gen_update:Test_support.Gen.Ledger.update
    ~gen_read:Test_support.Gen.Ledger.read

let shadow_driver (type s u r v)
    (module S : Onll_core.Spec.S
      with type state = s
       and type update_op = u
       and type read_op = r
       and type value = v) _seed : (u -> v) * (r -> v) =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module H = Onll_baselines.Shadow.Make (M) (S) in
  let obj = H.create ~state_capacity:(1 lsl 14) () in
  (H.update obj, H.read obj)

let prop_shadow_set =
  equiv_test "shadow set = model"
    ~driver:(shadow_driver (module Onll_specs.Set_spec))
    (module Onll_specs.Set_spec)
    ~gen_update:Test_support.Gen.Set_g.update
    ~gen_read:Test_support.Gen.Set_g.read

let por_driver (type s u r v)
    (module S : Onll_core.Spec.S
      with type state = s
       and type update_op = u
       and type read_op = r
       and type value = v) _seed : (u -> v) * (r -> v) =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module P = Onll_baselines.Linearize_early.Make (M) (S) in
  let obj = P.create Onll_baselines.Linearize_early.Help in
  (P.update obj, P.read obj)

let prop_por_stack =
  equiv_test "persist-on-read stack = model"
    ~driver:(por_driver (module Onll_specs.Stack_spec))
    (module Onll_specs.Stack_spec)
    ~gen_update:Test_support.Gen.Stack.update
    ~gen_read:Test_support.Gen.Stack.read

(* {1 Recovery-prefix properties} *)

let prop_recovered_count_bounds =
  qcheck
    (QCheck.Test.make ~name:"recovered count in [completed, invoked]"
       ~count:80
       QCheck.(pair small_nat (int_bound 200))
       (fun (seed, crash_at) ->
         let sim = Sim.create ~max_processes:3 () in
         let module M = (val Sim.machine sim) in
         let module C = Onll_core.Onll.Make (M) (Cs) in
         let obj = C.make Onll_core.Onll.Config.default in
         let completed = ref 0 and invoked = ref 0 in
         let procs =
           Array.init 3 (fun _ ->
               fun _ ->
                 for _ = 1 to 4 do
                   incr invoked;
                   ignore (C.update obj Cs.Increment);
                   incr completed
                 done)
         in
         let outcome =
           Sim.run sim
             (Onll_sched.Sched.Strategy.random_with_crash ~seed
                ~crash_at_step:crash_at)
             procs
         in
         ignore outcome;
         C.recover obj;
         let v = C.read obj Cs.Get in
         v >= !completed && v <= !invoked))

let prop_multi_era_monotone =
  qcheck
    (QCheck.Test.make ~name:"value monotone across repeated crash eras"
       ~count:40 QCheck.small_nat (fun seed ->
         let sim = Sim.create ~max_processes:2 () in
         let module M = (val Sim.machine sim) in
         let module C = Onll_core.Onll.Make (M) (Cs) in
         let obj = C.make { Onll_core.Onll.Config.default with log_capacity = (1 lsl 18) } in
         let last = ref 0 in
         let ok = ref true in
         for era = 1 to 4 do
           let procs =
             Array.init 2 (fun _ ->
                 fun _ ->
                   for _ = 1 to 5 do
                     ignore (C.update obj Cs.Increment)
                   done)
           in
           ignore
             (Sim.run sim
                (Onll_sched.Sched.Strategy.random_with_crash
                   ~seed:(seed + era)
                   ~crash_at_step:(20 + ((seed * era) mod 60)))
                procs);
           C.recover obj;
           let v = C.read obj Cs.Get in
           if v < !last then ok := false;
           last := v
         done;
         !ok))

(* {1 Reclamation anytime: checkpoints/prunes never change semantics} *)

let prop_checkpoint_anytime =
  qcheck
    (QCheck.Test.make
       ~name:"random checkpoint/prune placement preserves the state"
       ~count:60 QCheck.small_nat (fun seed ->
         let rng = Splitmix.create seed in
         let sim = Sim.create ~max_processes:1 () in
         let module M = (val Sim.machine sim) in
         let module C = Onll_core.Onll.Make (M) (Cs) in
         let obj = C.make { Onll_core.Onll.Config.default with log_capacity = (1 lsl 18) } in
         let n = 30 in
         for _ = 1 to n do
           ignore (C.update obj Cs.Increment);
           (match Splitmix.int rng 6 with
           | 0 -> ignore (C.checkpoint obj)
           | 1 -> C.prune obj ~below:((C.snapshot obj).Onll_core.Onll.Snapshot.latest_available_idx)
           | _ -> ())
         done;
         Onll_nvm.Memory.crash (Sim.memory sim)
           ~policy:
             (if Splitmix.bool rng then Onll_nvm.Crash_policy.Drop_all
              else Onll_nvm.Crash_policy.Persist_all);
         C.recover obj;
         C.read obj Cs.Get = n))

(* Pruning folds from the newest state published at or below the prune
   point (the paper's local views, §8), which random interleavings leave
   at scattered nodes, some already cleared. Whatever it is, the base a
   prune installs must be the state the operations below it fold to from
   the initial state. The queue's state lists every enqueue in order, so
   the final contents (checked against every process's FIFO order) give
   the linearization the base is checked against. *)
let prop_prune_base_is_fold =
  qcheck
    (QCheck.Test.make
       ~name:"prune from local views: base = fold from the initial state"
       ~count:60 QCheck.small_nat (fun seed ->
         let module Q = Onll_specs.Queue_spec in
         let procs = 3 and per = 12 in
         let sim = Sim.create ~max_processes:procs () in
         let module M = (val Sim.machine sim) in
         let module C = Onll_core.Onll.Make (M) (Q) in
         let obj = C.make Onll_core.Onll.Config.default in
         let rng = Splitmix.create seed in
         let plans =
           Array.init procs (fun _ -> Array.init per (fun _ -> Splitmix.int rng 6))
         in
         let ok = ref true in
         for round = 0 to 2 do
           let body p _ =
             Array.iteri
               (fun k choice ->
                 match choice with
                 | 0 -> ignore (C.read obj Q.Length)
                 | 1 -> (
                     (* a concurrent prune may already have cut above
                        this checkpoint: the trace refuses, as sharded
                        checkpoints expect *)
                     let upto = C.checkpoint obj in
                     try C.prune obj ~below:upto with Invalid_argument _ -> ())
                 | _ ->
                     ignore
                       (C.update obj
                          (Q.Enqueue ((round * 10_000) + (p * 100) + k))))
               plans.(p)
           in
           ignore
             (Sim.run sim
                (Onll_sched.Sched.Strategy.random ~seed:((seed * 3) + round))
                (Array.init procs body));
           let order = Q.to_list (C.current_state obj) in
           for p = 0 to procs - 1 do
             let enqueued =
               List.concat_map
                 (fun r ->
                   List.filter_map
                     (fun k ->
                       if plans.(p).(k) >= 2 then
                         Some ((r * 10_000) + (p * 100) + k)
                       else None)
                     (List.init per Fun.id))
                 (List.init (round + 1) Fun.id)
             in
             if List.filter (fun v -> v / 100 mod 100 = p) order <> enqueued
             then ok := false
           done;
           let base_idx, base = C.trace_base obj in
           let folded =
             List.fold_left
               (fun st v -> fst (Q.apply st (Q.Enqueue v)))
               Q.initial
               (List.filteri (fun i _ -> i < base_idx) order)
           in
           if not (Q.equal_state base folded) then ok := false
         done;
         !ok))

let prop_detectability_total =
  qcheck
    (QCheck.Test.make
       ~name:"after crash: op linearized iff counted in the value" ~count:60
       QCheck.(pair small_nat (int_bound 150))
       (fun (seed, crash_at) ->
         let sim = Sim.create ~max_processes:2 () in
         let module M = (val Sim.machine sim) in
         let module C = Onll_core.Onll.Make (M) (Cs) in
         let obj = C.make Onll_core.Onll.Config.default in
         let per = 4 in
         let procs =
           Array.init 2 (fun p ->
               fun _ ->
                 for k = 0 to per - 1 do
                   ignore (C.update_detectable obj ~seq:k Cs.Increment);
                   ignore p
                 done)
         in
         ignore
           (Sim.run sim
              (Onll_sched.Sched.Strategy.random_with_crash ~seed
                 ~crash_at_step:crash_at)
              procs);
         C.recover obj;
         let linearized = ref 0 in
         for p = 0 to 1 do
           for k = 0 to per - 1 do
             if
               C.was_linearized obj { Onll_core.Onll.id_proc = p; id_seq = k }
             then incr linearized
           done
         done;
         C.read obj Cs.Get = !linearized))

(* {1 Checker self-tests on generated histories} *)

module H = Onll_histcheck.Histcheck.Make (Cs)

(* A sequential history generated from the model is always accepted. *)
let prop_checker_accepts_model_histories =
  qcheck
    (QCheck.Test.make ~name:"checker accepts model-generated histories"
       ~count:80 QCheck.small_nat (fun seed ->
         let rng = Splitmix.create seed in
         let events = ref [] in
         let model = ref Cs.initial in
         let uid = ref 0 in
         for _ = 1 to 8 do
           let proc = Splitmix.int rng 3 in
           let u = !uid in
           incr uid;
           if Splitmix.bool rng then begin
             let op = Test_support.Gen.Counter.update rng in
             let st', v = Cs.apply !model op in
             model := st';
             events :=
               H.Return { uid = u; value = v }
               :: H.Invoke { uid = u; proc; kind = H.Update op }
               :: !events
           end
           else begin
             let v = Cs.read !model Cs.Get in
             events :=
               H.Return { uid = u; value = v }
               :: H.Invoke { uid = u; proc; kind = H.Read Cs.Get }
               :: !events
           end
         done;
         match H.check (List.rev !events) with
         | H.Durably_linearizable _ -> true
         | H.Violation _ | H.Budget_exhausted -> false))

(* Mutating one increment's return value in a strictly increasing history
   must be rejected. *)
let prop_checker_rejects_mutations =
  qcheck
    (QCheck.Test.make ~name:"checker rejects a mutated return value"
       ~count:60
       QCheck.(pair (int_range 1 6) (int_range 1 100))
       (fun (victim, delta) ->
         let n = 7 in
         let victim = victim mod n in
         let events =
           List.concat
             (List.init n (fun k ->
                  let v = if k = victim then k + 1 + delta else k + 1 in
                  [
                    H.Invoke { uid = k; proc = 0; kind = H.Update Cs.Increment };
                    H.Return { uid = k; value = v };
                  ]))
         in
         match H.check events with
         | H.Violation _ -> true
         | H.Durably_linearizable _ | H.Budget_exhausted -> false))

let () =
  Alcotest.run "properties"
    [
      ( "sequential equivalence",
        [
          prop_onll_counter;
          prop_onll_kv;
          prop_onll_wf_queue;
          prop_onll_wf_ledger;
          prop_shadow_set;
          prop_por_stack;
        ] );
      ( "recovery",
        [
          prop_recovered_count_bounds;
          prop_multi_era_monotone;
          prop_detectability_total;
        ] );
      ( "reclamation", [ prop_checkpoint_anytime; prop_prune_base_is_fold ] );
      ( "checker",
        [ prop_checker_accepts_model_histories; prop_checker_rejects_mutations ]
      );
    ]
