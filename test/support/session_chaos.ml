(** E15 — exactly-once session chaos: crash-fuzz the {!Onll_session}
    client protocol and audit it from the client table.

    One run is: [n_procs] clients, each driving its own session over a
    shared object over {!Onll_core.Client_table} (plain, mirrored or
    sharded), submitting a deterministic per-client workload under a
    seeded random schedule with transient flush/fence faults — cut by a
    crash, recovered under nested-crash adversity, resumed (every client
    re-attaches, resubmits its unanswered operation under the sequence
    number it had, then finishes its workload) and audited:

    - {b one identity per operation}: each logical operation runs under
      exactly one [(client, seq)], however often it is resubmitted, so
      the table's entries are dense: client [p] applied [last_p + 1]
      operations;
    - {b no lost acks}: every acknowledged seq is at or below its
      client's recorded last seq;
    - {b value}: the object's state shows exactly [Σ (last_p + 1)]
      applied operations — duplicate-sensitive specs (counter, ledger)
      make a second apply, or a lost one, visible in the state itself;
    - {b attach is a read}: attaching twice gives the same cursor;
    - {b liveness}: the post-crash era completes.

    The {!arm.Naive} arm is the calibration: the same workload driven as
    {e at-least-once} — untracked updates, blindly re-invoked after a
    restart. Its duplicates (applied operations beyond the logical ones)
    are counted, not flagged: a campaign in which the naive arm never
    duplicates proves nothing about the session arms' zeros.

    Seeds where [seed mod 5 = 0] are {e transient storms} (no crash, but
    flush/fence failure runs long enough to escape the log layer's
    bounded retry), exercising the in-run half of the protocol: an
    in-doubt submission resubmitted in place. *)

open Onll_util
open Onll_machine
module Faults = Onll_faults.Faults

(** Which object the sessions drive — or the at-least-once baseline. *)
type arm = Plain | Mirrored | Sharded | Naive

let arm_label = function
  | Plain -> "plain"
  | Mirrored -> "mirrored"
  | Sharded -> "sharded"
  | Naive -> "naive"

type plan = {
  seed : int;
  n_procs : int;
  ops_per_proc : int;  (** logical client ops per process, era 1 *)
  post_ops : int;  (** additional logical ops per process after recovery *)
  crash_at : int;  (** scheduler step of the crash; [max_int] = no crash *)
  policy : Onll_nvm.Crash_policy.t;
  arm : arm;
  log_capacity : int;  (** object log capacity (per process, per shard) *)
  fault : Faults.Plan.t;
  fault_scope : [ `All | `Primary_only ];
  nested_crashes : int;
}

(* The per-seed grid: every knob a pure function of (arm, seed). Storm
   seeds ([seed mod 5 = 0]) trade the crash for transient-fault runs long
   enough ([max_consecutive_transients] above the log layer's retry
   budget) that faults escape into the session as in-doubt answers; all
   other seeds crash mid-era under mild transients. Media corruption is
   reserved for the mirrored arm and confined to primaries — the scope
   mirrors provably heal — so the exactly-once bar stays at zero across
   every session arm. *)
let plan_of_seed ?(arm = Plain) seed =
  let storm = seed mod 5 = 0 in
  let fault =
    {
      Faults.Plan.none with
      Faults.Plan.seed;
      flush_fail_prob =
        (if storm then 0.9 else if seed mod 2 = 0 then 0.05 else 0.);
      fence_fail_prob =
        (if storm then 0.9 else if seed mod 2 = 1 then 0.05 else 0.02);
      max_consecutive_transients = (if storm then 12 else 2);
    }
  in
  let fault =
    match arm with
    | Mirrored ->
        {
          fault with
          Faults.Plan.bit_flips_per_crash = 1 + (seed mod 2);
          torn_spans_per_crash = (if seed mod 4 = 0 then 1 else 0);
          torn_span_max_bytes = 40;
          media_window = 512;
          media_fault_crashes = 2;
        }
    | Plain | Sharded | Naive -> fault
  in
  {
    seed;
    n_procs = 3;
    ops_per_proc = 6;
    post_ops = 2;
    crash_at = (if storm then max_int else 20 + (seed * 13 mod 150));
    policy =
      (match seed mod 3 with
      | 0 -> Onll_nvm.Crash_policy.Persist_all
      | 1 -> Onll_nvm.Crash_policy.Drop_all
      | _ -> Onll_nvm.Crash_policy.Random seed);
    arm;
    log_capacity = 1 lsl 16;
    fault;
    fault_scope = (match arm with Mirrored -> `Primary_only | _ -> `All);
    nested_crashes = seed mod 2;
  }

type result = {
  crashed : bool;
  logical : int;  (** logical client operations attempted *)
  acked : int;  (** operations acknowledged to their client *)
  duplicates : int;  (** applied operations beyond what the table accounts *)
  lost_acks : int;  (** acknowledged seqs above their client's last *)
  nested_fired : int;
  faults : Faults.counters;
  violations : string list;  (** audit failures; empty = pass *)
  metrics : (string * int) list;
}

(* The sink counters a campaign aggregates across runs. *)
let tracked_counters =
  [
    "session.ops";
    "session.ok";
    "session.duplicates";
    "session.in_doubt";
    "session.sheds";
    "session.refused";
    "ops.update";
    "fences.update";
    "faults.injected";
    "retries";
    "crashes";
    "recoveries";
  ]

(* How often one logical op is submitted in a row before its client waits
   for the restart: a storm outlasts this. *)
let resubmits = 3

module Make (S : Onll_core.Spec.S) = struct
  module Ct = Onll_core.Client_table.Make (S)
  module Sess = Onll_session.Make (S)

  (* [op_of ~proc ~k] is the deterministic logical workload — logical op
     [k] of client [proc]. [applied ~read ~n_procs] counts the operations
     the object's state shows applied (a counter's value; a ledger's
     opens and deposits), which the audit compares with the table. *)
  let run ~plan ~op_of ~applied () =
    let registry = Onll_obs.Metrics.create () in
    let sink = Onll_obs.Sink.make ~registry () in
    let sim =
      Sim.create ~sink ~max_processes:(max plan.n_procs 1)
        ~crash_policy:plan.policy ()
    in
    let mem = Sim.memory sim in
    let module M = (val Sim.machine sim) in
    let module B = Onll_stack.Make (M) (Ct) in
    let obj =
      B.build
        (match plan.arm with
        | Sharded ->
            {
              Onll_stack.plain with
              top = Onll_stack.Direct (Onll_stack.Sharded (`Plain, 4));
            }
        | Mirrored -> { Onll_stack.plain with replicas = 2 }
        | Plain | Naive -> Onll_stack.plain)
        {
          Onll_core.Onll.Config.default with
          log_capacity = plan.log_capacity;
          sink;
        }
    in
    let backend = B.backend obj in
    let fault_plan =
      match plan.fault_scope with
      | `All -> plan.fault
      | `Primary_only ->
          let base = plan.fault.Faults.Plan.target in
          {
            plan.fault with
            Faults.Plan.target =
              (fun n -> base n && not (Onll_plog.Plog.is_mirror_region n));
          }
    in
    let handle = Faults.install mem fault_plan in
    let violations = ref [] in
    let fail fmt =
      Format.kasprintf (fun s -> violations := s :: !violations) fmt
    in
    (* Shedding off: admission control has its own deterministic test;
       here every submission must reach the table. *)
    let admission = Onll_core.Admission.create ~watermark:1.0 in
    let attach p = Sess.attach ~sink ~admission ~client:p backend in
    let sessions = Array.init plan.n_procs attach in
    (* Plain OCaml state, not simulated NVM, so it survives simulated
       crashes exactly like a client's own bookkeeping: the next logical
       op, the one submitted and not yet answered with its seq, and every
       acknowledged seq. *)
    let kcur = Array.make plan.n_procs 1 in
    let inflight = Array.make plan.n_procs None in
    let acked = Array.make plan.n_procs [] in
    (* One logical session op: its seq is the cursor's when it is first
       submitted, and every resubmission reuses it. A client whose op is
       still unanswered after [resubmits] tries waits for the restart. *)
    let session_op p k =
      let op = op_of ~proc:p ~k in
      let seq =
        match inflight.(p) with
        | Some (k', seq) when k' = k -> seq
        | _ -> Sess.next_seq sessions.(p)
      in
      inflight.(p) <- Some (k, seq);
      let rec go tries =
        match Sess.submit ~seq sessions.(p) op with
        | Ok _ ->
            acked.(p) <- seq :: acked.(p);
            inflight.(p) <- None;
            `Done
        | Error Onll_session.In_doubt when tries < resubmits -> go (tries + 1)
        | Error (Onll_session.Overloaded | Onll_session.Degraded)
          when tries = 0 ->
            inflight.(p) <- None;
            `Skip
        | Error _ -> `Stall
        | exception Invalid_argument _ ->
            fail "client %d: seq %d is past the table's cursor %d" p seq
              (Sess.next_seq sessions.(p));
            `Stall
      in
      go 0
    in
    (* The at-least-once baseline: untracked updates, and after a restart
       the unanswered one re-invoked blindly. Its duplicates calibrate
       the audit. *)
    let naive_op p k =
      inflight.(p) <- Some (k, -1);
      match backend.b_update (Ct.Untracked (op_of ~proc:p ~k)) with
      | _ ->
          acked.(p) <- k :: acked.(p);
          inflight.(p) <- None;
          `Done
      | exception Onll_nvm.Memory.Transient_fault _ -> `Stall
    in
    let one_op p k =
      if plan.arm = Naive then naive_op p k else session_op p k
    in
    let era_to p limit =
      let continue = ref true in
      while !continue && kcur.(p) <= limit do
        let k = kcur.(p) in
        match one_op p k with
        | `Done | `Skip -> kcur.(p) <- k + 1
        | `Stall -> continue := false
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
      Sim.run sim strategy
        (Array.init plan.n_procs (fun p _ -> era_to p plan.ops_per_proc))
    in
    let crashed = outcome = Onll_sched.Sched.World.Crashed in
    let nested_fired = ref 0 in
    (* Era boundary: the storm grid must not rage through recovery — a
       transient run longer than the log layer's bounded retry would abort
       the recovery attempt itself, which is outside the protocol being
       audited. Swap to a mild close-out grid (same media settings, capped
       transients recovery's own retry always absorbs). *)
    let era1_faults = Faults.counters handle in
    Faults.remove handle;
    let handle =
      Faults.install mem
        {
          fault_plan with
          Faults.Plan.flush_fail_prob =
            Float.min fault_plan.Faults.Plan.flush_fail_prob 0.05;
          fence_fail_prob =
            Float.min fault_plan.Faults.Plan.fence_fail_prob 0.05;
          max_consecutive_transients = 2;
        }
    in
    (* Every run closes with a crash-recovery cycle: runs the scheduler
       did not cut (storm seeds, or a crash step past the era) crash here
       instead, so the audit always exercises a restart. *)
    if not crashed then Onll_nvm.Memory.crash mem ~policy:plan.policy;
    Faults.set_rot handle false;
    (* Recovery under nested-crash adversity, chaos-style: each armed
       firing is a real crash (media may corrupt again, per plan)
       followed by a fresh attempt; the last attempt runs unarmed. *)
    let rng = Splitmix.create (plan.seed lxor 0x5E55) in
    let rec recover budget =
      if budget > 0 && plan.nested_crashes > 0 then
        Faults.arm_recovery_crash handle ~at_op:(Splitmix.int rng 24)
      else Faults.disarm handle;
      match obj.B.recover_report () with
      | _ -> Faults.disarm handle
      | exception Onll_nvm.Memory.Injected_crash ->
          incr nested_fired;
          Onll_nvm.Memory.crash mem ~policy:plan.policy;
          recover (budget - 1)
    in
    recover plan.nested_crashes;
    (* Era 2: every client re-attaches (twice: attaching is a read),
       resubmits its unanswered op, then finishes its workload plus
       [post_ops] more. *)
    let total = plan.ops_per_proc + plan.post_ops in
    let post p _ =
      if plan.arm <> Naive then begin
        sessions.(p) <- attach p;
        if Sess.next_seq (attach p) <> Sess.next_seq sessions.(p) then
          fail "client %d: a second attach moved the cursor" p
      end;
      let resumed =
        match inflight.(p) with
        | None -> true
        | Some (k, _) -> (
            match one_op p k with
            | `Done | `Skip ->
                kcur.(p) <- k + 1;
                true
            | `Stall -> false)
      in
      if resumed then era_to p total
    in
    (match
       Sim.run sim Onll_sched.Sched.Strategy.round_robin
         (Array.init plan.n_procs post)
     with
    | Onll_sched.Sched.World.Completed -> ()
    | _ -> fail "post-crash era did not complete");
    (* The audit. A session client applied its seqs 0..last, each once;
       the naive client applied each logical op it started at least
       once. *)
    let last p =
      match backend.b_read (Ct.Last p) with
      | Ct.Last_seq l -> Option.value l ~default:(-1)
      | Ct.Value _ | Ct.Duplicate -> -1
    in
    let expected =
      List.init plan.n_procs (fun p ->
          if plan.arm = Naive then kcur.(p) - 1 else last p + 1)
      |> List.fold_left ( + ) 0
    in
    let lost = ref 0 in
    if plan.arm <> Naive then
      for p = 0 to plan.n_procs - 1 do
        let l = last p in
        List.iter
          (fun seq ->
            if seq > l then begin
              incr lost;
              fail "lost ack: client %d seq %d above its last %d" p seq l
            end)
          acked.(p)
      done;
    let read r =
      match backend.b_read (Ct.Inner r) with
      | Ct.Value v -> v
      | Ct.Duplicate | Ct.Last_seq _ -> invalid_arg "session_chaos: read"
    in
    let excess = applied ~read ~n_procs:plan.n_procs - expected in
    if plan.arm <> Naive && excess <> 0 then
      fail "value: the state shows %d applied operations, the table %d"
        (excess + expected) expected;
    Faults.remove handle;
    {
      crashed;
      logical =
        Array.fold_left ( + ) 0 kcur - plan.n_procs
        + Array.fold_left
            (fun n f -> if Option.is_some f then n + 1 else n)
            0 inflight;
      acked = Array.fold_left (fun n l -> n + List.length l) 0 acked;
      duplicates = max 0 excess;
      lost_acks = !lost;
      nested_fired = !nested_fired;
      faults =
        (let a = era1_faults and b = Faults.counters handle in
         Faults.
           {
             bit_flips = a.bit_flips + b.bit_flips;
             torn_spans = a.torn_spans + b.torn_spans;
             rot_flips = a.rot_flips + b.rot_flips;
             flush_transients = a.flush_transients + b.flush_transients;
             fence_transients = a.fence_transients + b.fence_transients;
             recovery_crashes = a.recovery_crashes + b.recovery_crashes;
           });
      violations = List.rev !violations;
      metrics =
        List.map
          (fun k -> (k, Onll_obs.Metrics.counter_value registry k))
          tracked_counters;
    }
end

(* {2 Campaign} *)

(* The counts projection: the exactly-once bookkeeping, injected faults,
   then the summed sink counters. *)
let counts r =
  let f = r.faults in
  [
    ("logical", r.logical);
    ("acked", r.acked);
    ("duplicates", r.duplicates);
    ("lost_acks", r.lost_acks);
    ("transients", f.Faults.flush_transients + f.Faults.fence_transients);
    ("media_faults", f.Faults.bit_flips + f.Faults.torn_spans);
    ("nested_crashes", r.nested_fired);
  ]
  @ r.metrics

(* The summary is the row list; rows are named "<spec>/<arm>". *)
let is_naive r = String.ends_with ~suffix:"/naive" r.Campaign.name
let session_rows s = List.filter (fun r -> not (is_naive r)) s
let e15_violations s = Campaign.total "violations" s
let e15_session_duplicates s = Campaign.total "duplicates" (session_rows s)
let e15_session_lost_acks s = Campaign.total "lost_acks" (session_rows s)

let e15_naive_duplicates s =
  Campaign.total "duplicates" (List.filter is_naive s)

(* Deterministic per-client workloads. Both specs are duplicate-sensitive:
   a counter counts every applied increment; a per-client ledger account
   counts every applied deposit, after its one open. *)
let counter_op ~proc:_ ~k:_ = Onll_specs.Counter.Increment
let counter_applied ~read ~n_procs:_ = read Onll_specs.Counter.Get
let ledger_account p = Printf.sprintf "c%d" p

let ledger_op ~proc ~k =
  if k = 1 then Onll_specs.Ledger.Open (ledger_account proc)
  else Onll_specs.Ledger.Deposit (ledger_account proc, 1)

let ledger_applied ~read ~n_procs =
  List.init n_procs (fun p ->
      match read (Onll_specs.Ledger.Balance (ledger_account p)) with
      | Onll_specs.Ledger.Amount (Some deposits) -> 1 + deposits
      | _ -> 0)
  |> List.fold_left ( + ) 0

let run_e15 ~seeds_per_arm =
  let module Counter = Make (Onll_specs.Counter) in
  let module Ledger = Make (Onll_specs.Ledger) in
  let arm ~spec run arm =
    Campaign.arm
      ~name:(Printf.sprintf "%s/%s" spec (arm_label arm))
      ~seeds:seeds_per_arm
      ~crashed:(fun r -> r.crashed)
      ~violations:(fun r -> r.violations)
      ~counts
      (fun seed -> run ~plan:(plan_of_seed ~arm seed) ())
  in
  List.concat_map
    (fun a ->
      [
        arm ~spec:"counter"
          (Counter.run ~op_of:counter_op ~applied:counter_applied)
          a;
        arm ~spec:"ledger"
          (Ledger.run ~op_of:ledger_op ~applied:ledger_applied)
          a;
      ])
    [ Plain; Mirrored; Sharded; Naive ]

let print s =
  Campaign.print
    ~title:
      "E15 — exactly-once session campaign (session arms must show 0 \
       duplicates and 0 lost acks; the naive at-least-once arm is the \
       calibration and must duplicate)"
    ~header:"workload/arm"
    ~columns:
      [
        ("runs", "runs");
        ("crashed", "crashed");
        ("logical", "logical");
        ("acked", "acked");
        ("in-doubt", "session.in_doubt");
        ("dup-answers", "session.duplicates");
        ("updates", "ops.update");
        ("pfences", "fences.update");
        ("dups", "duplicates");
        ("lost-acks", "lost_acks");
        ("violations", "violations");
      ]
    s;
  Printf.printf
    "session arms: %d duplicates, %d lost acks (both must be 0) | naive \
     calibration: %d duplicates %s\n"
    (e15_session_duplicates s) (e15_session_lost_acks s)
    (e15_naive_duplicates s)
    (if e15_naive_duplicates s > 0 then "(detector fires)"
     else "(NAIVE ARM NEVER DUPLICATED — campaign proves nothing)")

(* Fold the rows into a metrics registry for the BENCH_e15.json snapshot
   and the deterministic gate slice; "<spec>/<arm>" keys as
   "e15.<spec>.<arm>.*". *)
let to_metrics s =
  let reg = Onll_obs.Metrics.create () in
  List.iter
    (fun r ->
      let name =
        String.map (fun c -> if c = '/' then '.' else c) r.Campaign.name
      in
      ignore (Campaign.to_metrics ~reg ~prefix:("e15." ^ name) r))
    s;
  reg
