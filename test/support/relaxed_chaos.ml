(** The E20 bounded-staleness chaos campaign: seeded crashes cut a
    risk-budgeted relaxed object at swept schedule points — so the
    volatile tail is hit at every depth from empty to the full budget —
    and recovery is audited for {e quantified, suffix-only} loss.

    The object is a [Direct (Relaxed (engine, k))] {!Onll_stack.t}, built
    by {!Onll_stack.Make}, so the campaign runs over any engine. Each
    simulated process runs a deterministic script of single-key kv
    writes against its own keys, mostly through the fence-free
    [update_stale] tier with an occasional strict (detectable) update,
    whose fence covers every unfenced acknowledgement below it.
    Values are strictly increasing per step, which makes the state after
    every prefix of a process's script pairwise distinct — "which prefix
    survived?" has exactly one answer.

    Post-crash, hardened recovery must satisfy, per process:

    - {b accounting}: every operation acknowledged before the crash is
      either linearized in the rebuilt state or named in
      {!Onll_core.Onll.Recovery_report.t.lost_acked} — exactly one of
      the two, never neither, never both;
    - {b budget}: the lost set never exceeds the risk budget k, nor the
      tail depth observed at the crash;
    - {b suffix}: the lost set is a suffix of the acknowledgement order
      — a reported-lost operation below a surviving one would break the
      prefix property buffered durable linearizability demands;
    - {b prefix}: the recovered values equal the model state after
      {e exactly} the acked-minus-lost prefix (one unacknowledged
      in-flight operation may extend it when nothing was lost) — in
      particular no reported-lost update is still visible;
    - {b idempotence}: an immediate second recovery reports no fresh
      loss and leaves the state untouched;
    - {b convergence}: a post-crash era ending in {!flush} completes,
      leaves zero operations at risk, and a second crash then loses
      nothing and resurrects nothing.

    Single-process windows additionally close the loop through the
    checker dual: the recorded history plus post-recovery reads must
    satisfy {!Histcheck.Make.check_buffered} with [declared_lost] taken
    verbatim from the recovery report.

    Why no media faults here: the E12/E13 grids already cover media
    damage; the crisp loss-equals-suffix invariant only holds under pure
    crash policies ([Drop_all]/[Persist_all]/[Random] pending-line
    subsets), where fenced drain records never vanish.

    The calibration arm re-runs the same plans against the stack's
    [recover_unhardened] (the engine's truncating
    recovery, the acknowledgement ledger ignored): the unfenced tail
    vanishes with nothing admitted, and the audits — and on checked
    windows the buffered checker — {e must} flag it. A crash that hit an
    empty tail loses nothing, so only crashes that cut acknowledged
    operations are caught. *)

module Kv = Onll_specs.Kv
module Report = Onll_core.Onll.Recovery_report

type plan = {
  seed : int;
  n_procs : int;
  updates_per_proc : int;
  crash_permille : int;
      (** where the crash lands, in thousandths of the scheduler steps a
          crash-free dry run of the same plan takes, so the sweep covers
          every plan's whole length whatever its engine *)
  policy : Onll_nvm.Crash_policy.t;
  stack : Onll_stack.t;
      (** a direct relaxed front; its [k] is the risk budget, the most
          acked-unfenced operations *)
  hardened : bool;
  checked : bool;
      (** run the buffered-checker dual on this window (single-process
          plans only — the checker is exponential in concurrency) *)
}

(* The plan's risk budget: the [k] of its relaxed front. *)
let budget plan =
  match plan.stack.Onll_stack.top with
  | Onll_stack.Direct (Onll_stack.Relaxed (_, k)) -> k
  | _ -> invalid_arg "Relaxed_chaos: the stack is not a direct relaxed front"

(* The risk budgets [plan_of_seed] draws are [1 lsl 0 .. 1 lsl
   max_log_budget]. *)
let max_log_budget = 3

let plan_of_seed seed =
  let n_procs = 1 + (seed mod 3) in
  let updates_per_proc = 4 + (seed mod 6) in
  {
    seed;
    n_procs;
    updates_per_proc;
    (* a fine sweep of the crash step walks the acknowledgements at risk
       through every depth from 0 to the budget across the campaign *)
    crash_permille = seed * 7919 mod 1000;
    policy = Crash_world.policy_of_seed seed;
    stack =
      {
        Onll_stack.plain with
        top = Direct (Relaxed (`Plain, 1 lsl (seed mod (max_log_budget + 1))));
      };
    hardened = true;
    checked = n_procs = 1 && updates_per_proc <= 6;
  }

(* The mirrored arm: the object's logs, drain records included, two-way
   replicated, all copies written under the same lazy fences. The
   invariants are identical; what is being checked is that mirroring
   composes with the deferred-drain protocol without widening the loss
   window. *)
let mirrored_plan_of_seed seed =
  let p = plan_of_seed seed in
  { p with stack = { p.stack with replicas = 2 } }

(* The same per-seed adversity over another engine, keeping the seed's
   budget and replicas. *)
let over engine plan_of seed =
  let p = plan_of seed in
  { p with stack = { p.stack with top = Direct (Relaxed (engine, budget p)) } }

let n_keys = 3
let key p i = Printf.sprintf "r.%d.%d" p i

(* One process's deterministic script: [(op, strict)] actions and the
   model state after every prefix. Values strictly increase per step, so
   prefix states are pairwise distinct. *)
let script_of ~plan p =
  let vals = Array.make n_keys None in
  let states = ref [ Array.copy vals ] (* newest first *) in
  let actions =
    List.init plan.updates_per_proc (fun t ->
        let i = t mod n_keys in
        let v = string_of_int (t + 1) in
        vals.(i) <- Some v;
        states := Array.copy vals :: !states;
        (Kv.Put (key p i, v), (t + plan.seed) mod 7 = 6))
  in
  (* states.(k) = model after prefix k, oldest first *)
  (actions, Array.of_list (List.rev !states))

type result = {
  steps : int;  (** scheduler steps of the era the crash cut *)
  crashed : bool;
  completed : int;  (** updates acknowledged pre-crash, all processes *)
  lost : int;  (** acknowledgements the recovery reported lost *)
  depth_at_crash : int;  (** tail depth (ops at risk) when the crash hit *)
  drains : int;
  deferred : int;
  converge_steps : int;  (** scheduler steps of the post-crash era *)
  violations : string list;
}

let run_at ~plan ~crash_at =
  let w = Crash_world.create ~n_procs:plan.n_procs ~policy:plan.policy in
  let module M = (val Crash_world.machine w) in
  let module B = Onll_stack.Make (M) (Kv) in
  let module H = Onll_histcheck.Histcheck.Make (Kv) in
  let budget = budget plan in
  let obj = B.build plan.stack (Crash_world.config w) in
  let r = Option.get obj.B.relaxed in
  let recorder = if plan.checked then Some (H.Recorder.create ()) else None in
  let scripts = Array.init plan.n_procs (fun p -> script_of ~plan p) in
  (* Plain refs mutated inside simulated processes: bookkeeping, not
     shared state, hence not scheduling points. Oldest-last. *)
  let acked = Array.make plan.n_procs [] in
  let mk_proc p _ =
    let actions, _ = scripts.(p) in
    List.iteri
      (fun t (op, strict) ->
        (* the script's [t]-th update is its process's [t]-th: a strict
           one claims that sequence number *)
        let submit op =
          if strict then
            ( { Onll_core.Onll.id_proc = p; id_seq = t },
              obj.B.update_detectable ~seq:t op )
          else r.B.update_stale ~budget op
        in
        let id =
          match recorder with
          | Some rc ->
              let id = ref None in
              ignore
                (H.Recorder.run_update rc ~proc:p op (fun op ->
                     let i, v = submit op in
                     id := Some i;
                     v));
              Option.get !id
          | None -> fst (submit op)
        in
        acked.(p) <- (t, id) :: acked.(p))
      actions
  in
  let crashed =
    Crash_world.run_to_crash w ~seed:plan.seed ~crash_at
      (Array.init plan.n_procs (fun p -> mk_proc p))
  in
  let steps =
    Onll_sched.Sched.World.steps_taken
      (Onll_machine.Sim.world w.Crash_world.sim)
  in
  (* The trace is transient (host-side) state, so the acknowledgements at
     risk at the crash are still readable — that is the figure the
     histogram buckets. *)
  let depth_at_crash = if crashed then r.B.pending_ops () else 0 in
  let fail fmt = Crash_world.fail w fmt in
  let converge_steps = ref 0 in
  let lost_count = ref 0 in
  (* surviving prefix length per process, from the prefix audit *)
  let survived_prefix = Array.make plan.n_procs 0 in
  if crashed then begin
    Option.iter H.Recorder.crash recorder;
    (* the unhardened baseline admits no loss *)
    let lost =
      if plan.hardened then begin
        let rep = obj.B.recover_report () in
        let lost = rep.Report.lost_acked in
        (* Pure crash chaos: budgeted loss is admitted in [lost_acked],
           everything else must be spotless. *)
        if not (Report.clean rep) then
          fail "recovery not clean under pure crash: %a" Report.pp rep;
        if List.length lost > budget then
          fail "budget exceeded: %d acked operations lost, budget %d"
            (List.length lost) budget;
        if List.length lost > depth_at_crash then
          fail "loss deeper than the tail: %d lost, %d pending at the crash"
            (List.length lost) depth_at_crash;
        lost
      end
      else (obj.B.recover_unhardened (); [])
    in
    lost_count := List.length lost;
    let value k =
      match obj.B.read (Kv.Get k) with Kv.Found v -> v | _ -> None
    in
    for p = 0 to plan.n_procs - 1 do
      let acks = List.rev acked.(p) (* oldest first *) in
      let n = List.length acks in
      let lost_p =
        List.filter (fun id -> id.Onll_core.Onll.id_proc = p) lost
      in
      (* Accounting: every acknowledged operation is linearized xor
         reported lost. *)
      let actions = Array.of_list (fst scripts.(p)) in
      List.iter
        (fun (t, id) ->
          let linearized = obj.B.was_linearized (fst actions.(t)) id in
          let reported = List.mem id lost_p in
          if linearized && reported then
            fail "proc %d: update %d both linearized and reported lost" p t;
          if (not linearized) && not reported then
            fail
              "proc %d: update %d was acknowledged but is neither \
               linearized nor reported lost"
              p t)
        acks;
      (* Suffix: the lost set is the tail of the acknowledgement order.
         An id we never booked (the crash landed between the engine's
         internal ack and our bookkeeping) may ride above it, never
         below. *)
      let known_lost =
        List.filter (fun id -> List.exists (fun (_, i) -> i = id) acks) lost_p
      in
      let l = List.length known_lost in
      let suffix = List.filteri (fun i _ -> i >= n - l) acks in
      if not (List.for_all (fun (_, id) -> List.mem id known_lost) suffix)
      then
        fail "proc %d: the lost set is not a suffix of the acked sequence" p;
      let max_seq =
        List.fold_left
          (fun m (_, i) -> max m i.Onll_core.Onll.id_seq)
          (-1) acks
      in
      List.iter
        (fun id ->
          if
            (not (List.mem id known_lost))
            && id.Onll_core.Onll.id_seq <= max_seq
          then
            fail "proc %d: a lost operation sits below an acknowledged one"
              p)
        lost_p;
      (* Prefix: the recovered values match the surviving prefix — and
         only it. *)
      let _, states = scripts.(p) in
      let state_matches k =
        let m = states.(k) in
        let ok = ref true in
        for i = 0 to n_keys - 1 do
          if value (key p i) <> m.(i) then ok := false
        done;
        !ok
      in
      (match
         Crash_world.longest_prefix ~matches:state_matches
           (Array.length states - 1)
       with
      | None ->
          fail "proc %d: recovered state matches NO prefix of its script" p
      | Some k ->
          survived_prefix.(p) <- k;
          let survived = n - l in
          if plan.hardened then begin
            if k < survived then
              fail
                "proc %d: only the %d-update prefix survived but %d acked \
                 updates were not reported lost"
                p k survived;
            if k > survived + 1 then
              fail
                "proc %d: the %d-update prefix is visible with only %d \
                 acked survivors"
                p k survived;
            if l > 0 && k <> survived then
              fail
                "proc %d: %d acked updates reported lost but the \
                 %d-update prefix is visible (want exactly %d) — a \
                 reported-lost update survived"
                p l k survived
          end
          else if k < survived then
            fail
              "proc %d: unhardened recovery lost %d acknowledged updates \
               and admitted nothing"
              p (survived - k))
    done;
    (* The checker dual: on single-process windows the recorded history
       plus post-recovery reads must pass the buffered verifier with the
       report's own loss declaration. *)
    (match recorder with
    | None -> ()
    | Some rc ->
        for i = 0 to n_keys - 1 do
          ignore
            (H.Recorder.run_read rc ~proc:0
               (Kv.Get (key 0 i))
               obj.B.read)
        done;
        let h = H.Recorder.history rc in
        let completed = List.length acked.(0) in
        (* recorder uids are invocation order = per-process sequence
           numbers here; an unreturned in-flight ack (seq >= completed)
           is incomplete in the history and must not be declared *)
        let declared =
          List.filter_map
            (fun id ->
              if
                id.Onll_core.Onll.id_proc = 0
                && id.Onll_core.Onll.id_seq < completed
              then Some id.Onll_core.Onll.id_seq
              else None)
            lost
        in
        (match
           H.check_buffered ~staleness:budget ~declared_lost:declared h
         with
        | H.Buffered_linearizable _ | H.Buffered_budget_exhausted -> ()
        | H.Buffered_violation msg ->
            if plan.hardened then
              fail "buffered checker rejected the recovered history: %s" msg
            else
              fail "undeclared loss caught by the buffered checker: %s" msg);
        if plan.hardened && List.length declared > 0 then
          match H.check h with
          | H.Violation _ -> ()
          | _ ->
              fail
                "the strict checker accepted a history with %d lost \
                 acknowledgements"
                (List.length declared));
    if plan.hardened then begin
      (* Idempotence: an immediate second recovery is a no-op. *)
      let snap () =
        List.init plan.n_procs (fun p ->
            List.init n_keys (fun i -> value (key p i)))
      in
      let before = snap () in
      let r2 = obj.B.recover_report () in
      if r2.Report.lost_acked <> [] then
        fail "second recovery reported fresh loss";
      if before <> snap () then fail "second recovery changed the state";
      (* Convergence: a post-crash era ending in a flush leaves nothing
         at risk; a further crash then loses nothing and resurrects
         nothing. [converge_steps] is the time-to-converge figure. *)
      let post p _ =
        ignore (obj.B.update (Kv.Put (key p 0, "post")));
        r.B.flush ()
      in
      let counting view =
        incr converge_steps;
        Onll_sched.Sched.Strategy.round_robin view
      in
      Crash_world.era w ~strategy:counting (Array.init plan.n_procs post);
      if r.B.pending_ops () <> 0 then
        fail "flush left %d operations at risk" (r.B.pending_ops ());
      for p = 0 to plan.n_procs - 1 do
        if value (key p 0) <> Some "post" then
          fail "proc %d: post-crash update not visible" p
      done;
      Onll_nvm.Memory.crash (Crash_world.memory w)
        ~policy:Onll_nvm.Crash_policy.Drop_all;
      let r3 = obj.B.recover_report () in
      if r3.Report.lost_acked <> [] then
        fail "a fully flushed object lost acknowledgements in a second crash";
      for p = 0 to plan.n_procs - 1 do
        if value (key p 0) <> Some "post" then
          fail "proc %d: flushed update lost in the second crash" p;
        (* no resurrection: the untouched keys still show exactly the
           first crash's surviving prefix — a value lost then must not
           reappear now (per-process sequence numbers are reused after
           recovery, so this is checked by value, not by id) *)
        let _, states = scripts.(p) in
        let m = states.(survived_prefix.(p)) in
        for i = 1 to n_keys - 1 do
          if value (key p i) <> m.(i) then
            fail
              "proc %d: key %d diverged after the second crash — a lost \
               update resurrected or a flushed one vanished"
              p i
        done
      done
    end
  end;
  {
    steps;
    crashed;
    completed = Array.fold_left (fun a l -> a + List.length l) 0 acked;
    lost = !lost_count;
    depth_at_crash;
    drains =
      Onll_obs.Metrics.counter_value w.Crash_world.registry "fences.drains";
    deferred =
      Onll_obs.Metrics.counter_value w.Crash_world.registry "fences.deferred";
    converge_steps = !converge_steps;
    violations = Crash_world.violations w;
  }

(* The plan crashed at its draw over the length of a crash-free dry run
   of itself. *)
let run ~plan () =
  let n = (run_at ~plan ~crash_at:max_int).steps in
  run_at ~plan ~crash_at:(1 + (plan.crash_permille * n / 1000))

(* {2 Campaigns} *)

(* The deepest risk budget [plan_of_seed] draws: no crash may find more
   operations at risk. *)
let deepest_budget = 1 lsl max_log_budget

(* Each crashed run's tail depth (ops at risk when the crash hit) as one
   histogram bucket, [risk.hist.<depth>] up to the deepest budget and
   [risk.hist.over] beyond it. *)
let depth_buckets r =
  let hit =
    if r.depth_at_crash > deepest_budget then "over"
    else string_of_int r.depth_at_crash
  in
  List.map
    (fun b -> ("risk.hist." ^ b, Bool.to_int (r.crashed && b = hit)))
    (List.init (deepest_budget + 1) string_of_int @ [ "over" ])

let outcome r =
  {
    Campaign.crashed = r.crashed;
    counts =
      [
        ("acked", r.completed);
        ("lost", r.lost);
        ("drains", r.drains);
        ("deferred", r.deferred);
        ("converge_steps", r.converge_steps);
      ]
      @ depth_buckets r;
    violations = r.violations;
  }

let within_budget =
  Campaign.zero
    (Printf.sprintf
       "every crash found at most the deepest risk budget (%d) at risk"
       deepest_budget)
    [ "risk.hist.over" ]

(* A staleness campaign: hardened arms [(name, plan_of, seeds)], each
   clean and within the budget, and the ledger-free calibration over
   [calibrate]'s grid, caught when a crash run is flagged ([at_least]
   times). [hist] prints and records the arms' ops-at-risk histogram. *)
let campaign ?(hist = false) ?at_least ~arms ~calibrate:(plan_of, seeds) () =
  Campaign.make ~recorded:`Columns
    ?hist:
      (if hist then
         Some ("ops at risk when the crash hit (tail depth -> runs)",
               "risk.hist.")
       else None)
    ~title:
      "E20 — bounded-staleness crash chaos (swept crash points; loss is \
       at most the budgeted suffix, named exactly, never resurrected; \
       violations must be 0)"
    ~header:"arm"
    ~columns:
      [
        ("runs", "runs");
        ("crashed", "crashed");
        ("acked", "acked");
        ("lost", "lost");
        ("drains", "drains");
        ("deferred", "deferred");
        ("converge-steps", "converge_steps");
        ("violations", "violations");
      ]
    ~prefix:"e20"
    (List.map
       (fun (name, plan_of, seeds) ->
         Campaign.arm ~name ~seeds
           ~requires:[ Campaign.no_violations; within_budget ]
           (fun seed -> outcome (run ~plan:(plan_of seed) ())))
       arms
    @ [
        Campaign.calibration ?at_least
          ~label:"unhardened recovery, ledger ignored"
          ~verdict:"crashes caught losing acknowledged updates" ~seeds
          ~caught:(fun o -> o.crashed && o.violations <> [])
          (fun seed ->
            outcome (run ~plan:{ (plan_of seed) with hardened = false } ()));
      ])

(** E20: the plain and mirrored arms with their ops-at-risk histogram,
    the calibration over the plain grid. *)
let e20 ~seeds ~calibration_seeds =
  campaign ~hist:true
    ~arms:
      [
        ("relaxed", plan_of_seed, seeds);
        ("relaxed/mirrored", mirrored_plan_of_seed, seeds);
      ]
    ~calibrate:(plan_of_seed, calibration_seeds)
    ()

(** One arm over [plan_of]'s grid and its own calibration: [onll chaos
    --relaxed]. *)
let one ~name ~seeds ~calibration_seeds plan_of =
  campaign
    ~arms:[ (name, plan_of, seeds) ]
    ~calibrate:(plan_of, calibration_seeds)
    ()

(** The audit over another engine ({!over}): six seeds, and a
    calibration caught on at least half of its eight, whatever the
    engine. The crash step is drawn from each plan's own length, so the
    crash cuts unfenced acknowledgements on half the seeds (the two whose
    budget is 1 never defer). *)
let audit engine =
  let plan_of = over engine plan_of_seed in
  campaign ~at_least:4
    ~arms:[ ("relaxed", plan_of, 6) ]
    ~calibrate:(plan_of, 8) ()
