(** Chaos-fuzz driver: crash-fuzz ({!Fuzz}) escalated with media faults.

    One chaos run is: a randomized concurrent workload under a seeded
    random schedule, cut by a crash whose aftermath includes {e media
    damage} (bit flips and torn spans in durable bytes, injected by
    {!Onll_faults}), recovered under {e further} adversity — transient
    flush/fence failures and nested crashes armed to fire mid-recovery —
    and finally audited:

    - {b no silent corruption}: every update that responded before the
      crash is either in the recovered history or covered by the recovery
      report's detected-loss set (see {!excuse} below for the one
      fundamental ambiguity);
    - {b no fabrication}: every recovered operation was actually invoked;
    - {b precedence}: the recovered order extends real-time order;
    - {b idempotence}: recovering a second time yields the same history;
    - {b liveness}: the recovered object completes a post-crash era.

    The same plan can be run against the {e unhardened} recovery
    (pre-hardening truncating scan, no reports) to calibrate the audit:
    the violations the hardened path must not produce are exactly the
    ones the unhardened path must. Every run is reproducible from its
    integer seed.

    {b The tail-ambiguity excuse.} A media fault that destroys the {e
    final} entry of a log is indistinguishable from an ordinary torn
    (unacknowledged, unfenced) append — there is nothing after it to
    resync on. Salvage classifies it as a torn tail, which is not
    reported as loss. So when a plan injects media faults, a missing
    completed operation is excused if some recovery attempt salvaged torn
    bytes (counted separately as [tail_ambiguous]); without media faults
    a fenced entry cannot tear and the excuse is off.

    {b Mirroring disambiguates it (E13).} With [replicas >= 2] and faults
    confined to primaries ([fault_scope = `Primary_only]), the ambiguity
    is {e gone}: an ordinary torn append tears every replica's tail (no
    copy of an unfenced append is ever durable), while a media fault hits
    one replica and leaves the mirror intact for salvage to restore. A
    mirrored primary-scoped run therefore gets {e no} excuse — any missing
    completed operation is a hard violation. Only [`All]-scope faults
    (both replicas hit — a genuine double fault) keep the excuse, and
    their losses must still be named by the report. *)

open Onll_util
open Onll_machine
module Faults = Onll_faults.Faults

type plan = {
  seed : int;
  n_procs : int;
  ops_per_proc : int;
  read_ratio : float;
  crash_at : int;  (** scheduler step of the crash *)
  policy : Onll_nvm.Crash_policy.t;
  stack : Onll_stack.t;
      (** the object under test — any legal stack; the E14 arms shard it,
          the E16 arms put it on group commit, so the crash can land {e
          mid-batch}: between the announce and the shared fence (the
          whole unfenced tail-batch must vanish with no acknowledged op in
          it) or between the fence and the acknowledgements (every batched
          update must recover exactly once) *)
  log_capacity : int;
  fault_scope : [ `All | `Primary_only ];
      (** which replicas media faults may hit; [`Primary_only] composes
          [Plog.is_mirror_region] into the fault plan's target, modelling
          independent media (mirrors provably heal) *)
  scrub_every : int;
      (** run an online scrub step every [n] operations per process
          (0 = never) *)
  fault : Faults.Plan.t;  (** media/transient fault plan *)
  nested_crashes : int;  (** nested crashes armed during recovery *)
  hardened : bool;  (** hardened recovery vs. calibration baseline *)
  post_ops : int;  (** single-process operations after recovery *)
}

let default_plan =
  {
    seed = 1;
    n_procs = 3;
    ops_per_proc = 4;
    read_ratio = 0.25;
    crash_at = 60;
    policy = Onll_nvm.Crash_policy.Drop_all;
    stack = Onll_stack.plain;
    log_capacity = 1 lsl 16;
    fault_scope = `All;
    scrub_every = 0;
    fault = Faults.Plan.none;
    nested_crashes = 0;
    hardened = true;
    post_ops = 4;
  }

type result = {
  crashed : bool;
  completed : int;  (** updates that responded pre-crash *)
  recovered : int;  (** operations in the final recovered history *)
  lost_reported : int;  (** completed ops covered by the loss report *)
  tail_ambiguous : int;  (** completed ops excused by torn-tail salvage *)
  nested_fired : int;  (** nested crashes that actually interrupted *)
  faults : Faults.counters;  (** everything the fault layer injected *)
  violations : string list;  (** audit failures; empty = pass *)
  metrics : (string * int) list;
      (** cumulative fault/retry/salvage/recovery counters from the run's
          sink registry, for campaign aggregation *)
}

(* The sink counters a campaign aggregates across runs. *)
let tracked_counters =
  [
    "faults.injected";
    "retries";
    "salvages";
    "salvage.quarantined";
    "salvage.bytes_lost";
    "repairs";
    "repair.entries";
    "scrubs";
    "scrub.repaired";
    "scrub.unrepairable";
    "recovery.interruptions";
    "recoveries";
    "crashes";
  ]

module Make (S : Onll_core.Spec.S) = struct
  let run ~plan ~gen_update ~gen_read () =
    let registry = Onll_obs.Metrics.create () in
    let sink = Onll_obs.Sink.make ~registry () in
    let sim =
      Sim.create ~sink ~max_processes:(max plan.n_procs 1)
        ~crash_policy:plan.policy ()
    in
    let mem = Sim.memory sim in
    let module M = (val Sim.machine sim) in
    let module B = Onll_stack.Make (M) (S) in
    let obj =
      B.build plan.stack
        {
          Onll_core.Onll.Config.default with
          log_capacity = plan.log_capacity;
          sink;
        }
    in
    (* The audit interrogates detectability by id alone, but sharded
       identities are per shard: remember each id's routing operation. A
       volatile (non-simulated-NVM) table, so it survives simulated
       crashes exactly like the audit's own bookkeeping does. *)
    let routes : (Onll_core.Onll.op_id, S.update_op) Hashtbl.t =
      Hashtbl.create 64
    in
    let update_detectable ~seq op =
      Hashtbl.replace routes { Onll_core.Onll.id_proc = M.self (); id_seq = seq } op;
      obj.B.update_detectable ~seq op
    in
    let was_linearized id =
      match Hashtbl.find_opt routes id with
      | Some op -> obj.B.was_linearized op id
      | None -> false
    in
    (* Execution indices are per shard, so the precedence audit only
       compares indices of ids on the same shard — across shards durable
       linearizability composes by locality, there is no shared index
       space to compare. *)
    let shard_of id =
      match Hashtbl.find_opt routes id with
      | Some op -> obj.B.shard_of op
      | None -> -1
    in
    let fault_plan =
      match plan.fault_scope with
      | `All -> plan.fault
      | `Primary_only ->
          let base = plan.fault.Faults.Plan.target in
          {
            plan.fault with
            Faults.Plan.target =
              (fun n ->
                base n && not (Onll_plog.Plog.is_mirror_region n));
          }
    in
    let handle = Faults.install mem fault_plan in
    (* Real-time bookkeeping: ids with invocation/response stamps from a
       logical clock. Plain refs mutated inside simulated processes — not
       shared variables, so not scheduling points. *)
    let clock = ref 0 in
    let tick () =
      incr clock;
      !clock
    in
    let invoked = ref [] (* (id, inv_time) *) in
    let completed = ref [] (* (id, inv_time, ret_time) *) in
    let mk_proc p _ =
      let rng = Splitmix.create ((plan.seed * 1_000_003) + p) in
      let seq = ref 0 in
      for k = 1 to plan.ops_per_proc do
        if Splitmix.float rng 1.0 < plan.read_ratio then
          ignore (obj.B.read (gen_read rng))
        else begin
          let op = gen_update rng in
          let id = { Onll_core.Onll.id_proc = p; id_seq = !seq } in
          let inv = tick () in
          invoked := (id, inv) :: !invoked;
          let _v = update_detectable ~seq:!seq op in
          incr seq;
          completed := (id, inv, tick ()) :: !completed
        end;
        (* Online scrubbing as a cooperative scheduler step: the crash can
           land mid-scrub, which is part of what the audit must survive. *)
        if plan.scrub_every > 0 && k mod plan.scrub_every = 0 then
          obj.B.scrub ()
      done
    in
    let strategy =
      let base = Onll_sched.Sched.Strategy.random ~seed:plan.seed in
      fun view ->
        if view.Onll_sched.Sched.Strategy.steps () >= plan.crash_at then
          Onll_sched.Sched.Strategy.Crash_now
        else base view
    in
    let outcome =
      Sim.run sim strategy (Array.init plan.n_procs (fun p -> mk_proc p))
    in
    let crashed = outcome = Onll_sched.Sched.World.Crashed in
    let violations = ref [] in
    let fail fmt =
      Format.kasprintf (fun s -> violations := s :: !violations) fmt
    in
    let lost_reported = ref 0 in
    let tail_ambiguous = ref 0 in
    let nested_fired = ref 0 in
    if crashed then begin
      (* Runtime rot is the online scrubber's regime; pause it for the
         recovery/audit phase (recovery adversity is modelled by crash-time
         corruption, transients and nested crashes instead). *)
      Faults.set_rot handle false;
      (* Recover under chaos: nested crashes are armed to fire a random
         number of durable-memory operations into the attempt; each firing
         is followed by a real crash (media may corrupt again, per the
         plan) and a fresh attempt. The budget bounds the loop; the last
         attempt runs unarmed. *)
      let rng = Splitmix.create (plan.seed lxor 0x5EED) in
      let recover_once () =
        if plan.hardened then Some (obj.B.recover_report ())
        else begin
          obj.B.recover_unhardened ();
          None
        end
      in
      let rec go budget =
        (* Recovery performs a few dozen durable-memory operations (salvage
           batches its log reads), so a short fuse is what actually lands
           mid-attempt. *)
        if budget > 0 && plan.nested_crashes > 0 then
          Faults.arm_recovery_crash handle ~at_op:(Splitmix.int rng 24)
        else Faults.disarm handle;
        match recover_once () with
        | r ->
            Faults.disarm handle;
            r
        | exception Onll_nvm.Memory.Injected_crash ->
            incr nested_fired;
            Onll_nvm.Memory.crash mem ~policy:plan.policy;
            go (budget - 1)
      in
      let report = go plan.nested_crashes in
      (* Idempotence: an immediate re-recovery must adopt the same
         history. *)
      let ops1 = obj.B.recovered_ops () in
      ignore (recover_once ());
      let ops2 = obj.B.recovered_ops () in
      if ops1 <> ops2 then
        fail "recovery not idempotent: %d ops then %d ops"
          (List.length ops1) (List.length ops2);
      (* Audit 1: no silent corruption. *)
      let media =
        plan.fault.Faults.Plan.bit_flips_per_crash > 0
        || plan.fault.Faults.Plan.torn_spans_per_crash > 0
      in
      let salvaged_bytes =
        Onll_obs.Metrics.counter_value registry "salvage.bytes_lost"
      in
      (* The torn-tail excuse only stands while it is genuinely ambiguous:
         with faults allowed into every replica (or no mirror at all) a
         fault on the final entry is indistinguishable from an ordinary
         torn append. With a mirror and primary-scoped faults it is not —
         the intact mirror tail must have been restored — so the excuse is
         withdrawn and any missing completed op is a hard violation. *)
      let excusable = plan.stack.Onll_stack.replicas = 1 || plan.fault_scope = `All in
      let reported id =
        match report with
        | None -> `No
        | Some r ->
            if
              List.mem id r.Onll_core.Onll.Recovery_report.dropped
              || Onll_core.Onll.Recovery_report.detected_loss r
            then `Reported
            else if media && salvaged_bytes > 0 && excusable then
              `Tail_ambiguous
            else `No
      in
      List.iter
        (fun (id, _, _) ->
          if not (was_linearized id) then
            match reported id with
            | `Reported -> incr lost_reported
            | `Tail_ambiguous -> incr tail_ambiguous
            | `No ->
                fail "silent loss: completed update %a gone, nothing reported"
                  Onll_core.Onll.pp_op_id id)
        !completed;
      (* Audit 2: no fabrication. *)
      List.iter
        (fun (id, _) ->
          if not (List.mem_assoc id !invoked) then
            fail "recovery fabricated operation %a" Onll_core.Onll.pp_op_id id)
        ops2;
      (* Audit 3: recovered order extends real-time precedence. *)
      let idx_of id = List.assoc_opt id ops2 in
      List.iter
        (fun (id1, _, ret1) ->
          List.iter
            (fun (id2, inv2) ->
              if
                id1 <> id2 && ret1 < inv2
                && shard_of id1 = shard_of id2
              then
                match (idx_of id1, idx_of id2) with
                | Some i1, Some i2 when i1 >= i2 ->
                    fail
                      "recovered order violates precedence: %a (idx %d) \
                       returned before %a (idx %d) was invoked"
                      Onll_core.Onll.pp_op_id id1 i1 Onll_core.Onll.pp_op_id
                      id2 i2
                | _ -> ())
            !invoked)
        !completed;
      (* Audit 4: the recovered object is alive. *)
      if plan.post_ops > 0 then begin
        let prng = Splitmix.create (plan.seed + 777) in
        let post _ =
          for k = 1 to plan.post_ops do
            if k mod 2 = 0 then ignore (obj.B.read (gen_read prng))
            else ignore (obj.B.update (gen_update prng))
          done
        in
        match Sim.run sim Onll_sched.Sched.Strategy.round_robin [| post |] with
        | Onll_sched.Sched.World.Completed -> ()
        | _ -> fail "post-crash era did not complete"
      end
    end;
    Faults.remove handle;
    {
      crashed;
      completed = List.length !completed;
      recovered =
        (if crashed then List.length (obj.B.recovered_ops ()) else 0);
      lost_reported = !lost_reported;
      tail_ambiguous = !tail_ambiguous;
      nested_fired = !nested_fired;
      faults = Faults.counters handle;
      violations = List.rev !violations;
      metrics =
        List.map
          (fun k -> (k, Onll_obs.Metrics.counter_value registry k))
          tracked_counters;
    }
end
