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
module Faults = Onll_faults.Faults

type plan = {
  seed : int;
  n_procs : int;
  ops_per_proc : int;
  crash_at : int;  (** scheduler step of the crash *)
  policy : Onll_nvm.Crash_policy.t;
  stack : Onll_stack.t;
      (** the object under test — any legal stack; the E14 arms shard it,
          the E16 arms put it on group commit, so the crash can land {e
          mid-window}: between the inserts and the window's fence (the
          whole unfenced window must vanish with no acknowledged op in
          it) or between the fence and the acknowledgements (every covered
          update must recover exactly once) *)
  fault_scope : [ `All | `Primary_only ];
      (** which replicas media faults may hit ({!Crash_world.scoped}) *)
  scrub_every : int;
      (** run an online scrub step every [n] operations per process
          (0 = never) *)
  fault : Faults.Plan.t;  (** media/transient fault plan *)
  nested_crashes : int;  (** nested crashes armed during recovery *)
  hardened : bool;  (** hardened recovery vs. calibration baseline *)
}

let default_plan =
  {
    seed = 1;
    n_procs = 3;
    ops_per_proc = 4;
    crash_at = 60;
    policy = Onll_nvm.Crash_policy.Drop_all;
    stack = Onll_stack.plain;
    fault_scope = `All;
    scrub_every = 0;
    fault = Faults.Plan.none;
    nested_crashes = 0;
    hardened = true;
  }

type result = {
  crashed : bool;
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
    let w = Crash_world.create ~n_procs:plan.n_procs ~policy:plan.policy in
    let module M = (val Crash_world.machine w) in
    let module B = Onll_stack.Make (M) (S) in
    let obj = B.build plan.stack (Crash_world.config w) in
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
    let handle =
      Faults.install (Crash_world.memory w)
        (Crash_world.scoped plan.fault_scope plan.fault)
    in
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
        (* one operation in four reads *)
        if Splitmix.float rng 1.0 < 0.25 then
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
    let crashed =
      Crash_world.run_to_crash w ~seed:plan.seed ~crash_at:plan.crash_at
        (Array.init plan.n_procs (fun p -> mk_proc p))
    in
    let fail fmt = Crash_world.fail w fmt in
    let lost_reported = ref 0 in
    let tail_ambiguous = ref 0 in
    let nested_fired = ref 0 in
    if crashed then begin
      (* Runtime rot is the online scrubber's regime; pause it for the
         recovery/audit phase (recovery adversity is modelled by crash-time
         corruption, transients and nested crashes instead). *)
      Faults.set_rot handle false;
      let recover_once () =
        if plan.hardened then Some (obj.B.recover_report ())
        else begin
          obj.B.recover_unhardened ();
          None
        end
      in
      (* Recover under chaos: nested crashes interrupt the attempts. *)
      let report, fired =
        Crash_world.recover_nested w handle
          ~rng_seed:(plan.seed lxor 0x5EED) ~budget:plan.nested_crashes
          recover_once
      in
      nested_fired := fired;
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
        Onll_obs.Metrics.counter_value w.Crash_world.registry
          "salvage.bytes_lost"
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
      (* Audit 2: no fabrication, and every operation recovered on the
         shard it was routed to. *)
      List.iter
        (fun (s, id, _) ->
          if not (List.mem_assoc id !invoked) then
            fail "recovery fabricated operation %a" Onll_core.Onll.pp_op_id id
          else if s <> shard_of id then
            fail "recovery adopted %a on shard %d, routed to shard %d"
              Onll_core.Onll.pp_op_id id s (shard_of id))
        ops2;
      (* Audit 3: recovered order extends real-time precedence. *)
      let idx_of id =
        List.find_map
          (fun (s, id', idx) ->
            if id' = id && s = shard_of id then Some idx else None)
          ops2
      in
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
      Crash_world.post_era w ~seed:plan.seed ~ops:4
        ~update:(fun rng -> ignore (obj.B.update (gen_update rng)))
        ~read:(fun rng -> ignore (obj.B.read (gen_read rng)))
    end;
    Faults.remove handle;
    {
      crashed;
      lost_reported = !lost_reported;
      tail_ambiguous = !tail_ambiguous;
      nested_fired = !nested_fired;
      faults = Faults.counters handle;
      violations = Crash_world.violations w;
      metrics = Crash_world.counters w tracked_counters;
    }
end
