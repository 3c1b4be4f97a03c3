(** The crash world every seeded sim campaign runs in: crash-fuzz
    ({!Fuzz}), E12–E14/E16 ({!Chaos}), E15 ({!Session_chaos}), E19
    ({!Txn_chaos}) and E20 ({!Relaxed_chaos}).

    One world is a simulated machine whose metrics sink feeds a fresh
    registry, the crash policy its crashes apply, and the run's violation
    list. It owns the pieces every campaign run shares: the seeded
    schedule cut by a crash at a chosen step, the fault scope that spares
    mirrors, recovery under nested crashes, the post-crash era that must
    complete, the longest-matching-prefix oracle and the sink-counter
    projection. A harness supplies only its workload script and its
    audit. *)

open Onll_machine
module Faults = Onll_faults.Faults

type t = {
  sim : Sim.t;
  registry : Onll_obs.Metrics.t;
  sink : Onll_obs.Sink.t;
  policy : Onll_nvm.Crash_policy.t;
  tally : Campaign.tally;  (** the run's audit failures *)
}

let create ~n_procs ~policy =
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  {
    sim =
      Sim.create ~sink ~max_processes:(max n_procs 1) ~crash_policy:policy ();
    registry;
    sink;
    policy;
    tally = Campaign.tally ();
  }

(** The crash policy a campaign seed draws: every pending line persists,
    none does, or a subset seeded by [seed], in turn. *)
let policy_of_seed seed =
  match seed mod 3 with
  | 0 -> Onll_nvm.Crash_policy.Persist_all
  | 1 -> Onll_nvm.Crash_policy.Drop_all
  | _ -> Onll_nvm.Crash_policy.Random seed

let memory w = Sim.memory w.sim
let machine w = Sim.machine w.sim

(** The object configuration a campaign builds over: the defaults, the
    world's sink and a 64 KiB log. *)
let config w =
  { Onll_core.Onll.Config.default with log_capacity = 1 lsl 16; sink = w.sink }

let fail w fmt = Campaign.fail w.tally fmt

(** The run's audit failures, oldest first; empty = pass. *)
let violations w = List.rev w.tally.Campaign.failures

(** Run one era of [procs] under [base] (default: the random schedule
    seeded [seed]) and crash it at scheduler step [crash_at] ([max_int]:
    never). True when the crash hit. *)
let run_to_crash ?base w ~seed ~crash_at procs =
  let open Onll_sched.Sched in
  let base =
    match base with Some b -> b | None -> Strategy.random ~seed
  in
  let strategy view =
    if view.Strategy.steps () >= crash_at then Strategy.Crash_now
    else base view
  in
  Sim.run w.sim strategy procs = World.Crashed

(** Run one more era (round robin unless [strategy] says otherwise); an
    era that does not complete is a violation named by [what]. *)
let era ?(strategy = Onll_sched.Sched.Strategy.round_robin)
    ?(what = "post-crash era") w procs =
  match Sim.run w.sim strategy procs with
  | Onll_sched.Sched.World.Completed -> ()
  | _ -> fail w "%s did not complete" what

(** The crash-fuzz harnesses' post-crash era: one process alternates
    [ops] operations, [update rng] first, then [read rng], drawing from
    an rng seeded by [seed]. *)
let post_era w ~seed ~ops ~update ~read =
  let rng = Onll_util.Splitmix.create (seed + 777) in
  era w
    [|
      (fun _ ->
        for k = 1 to ops do
          if k mod 2 = 0 then read rng else update rng
        done);
    |]

(** [plan] with media faults confined to primaries under [`Primary_only]:
    [Plog.is_mirror_region] joins the plan's target, modelling
    independent media, which a mirror provably heals. *)
let scoped scope plan =
  match scope with
  | `All -> plan
  | `Primary_only ->
      let base = plan.Faults.Plan.target in
      {
        plan with
        Faults.Plan.target =
          (fun n -> base n && not (Onll_plog.Plog.is_mirror_region n));
      }

(** Recover under nested-crash adversity: while [budget] lasts, each
    attempt is armed to crash a random number of durable-memory
    operations in — recovery performs a few dozen (salvage batches its
    log reads), so a short fuse is what lands mid-attempt. Each firing is
    a real crash under the world's policy (media may corrupt again, per
    the fault plan) followed by a fresh attempt; the last attempt runs
    unarmed. [rng_seed] seeds the fuses. Returns [recover]'s result and
    how many nested crashes fired. *)
let recover_nested w faults ~rng_seed ~budget recover =
  let rng = Onll_util.Splitmix.create rng_seed in
  let fired = ref 0 in
  let rec go budget =
    if budget > 0 then
      Faults.arm_recovery_crash faults ~at_op:(Onll_util.Splitmix.int rng 24)
    else Faults.disarm faults;
    match recover () with
    | r ->
        Faults.disarm faults;
        r
    | exception Onll_nvm.Memory.Injected_crash ->
        incr fired;
        Onll_nvm.Memory.crash (memory w) ~policy:w.policy;
        go (budget - 1)
  in
  let r = go budget in
  (r, !fired)

(** The longest prefix [k <= n] of a script whose model state [matches]
    the recovered one. Harnesses make every prefix state distinct, so
    there is at most one; [None] means a partial action is visible. *)
let rec longest_prefix ~matches n =
  if n < 0 then None
  else if matches n then Some n
  else longest_prefix ~matches (n - 1)

(** The sink counters [keys], as [(key, value)] for campaign
    aggregation. *)
let counters w keys =
  List.map (fun k -> (k, Onll_obs.Metrics.counter_value w.registry k)) keys
