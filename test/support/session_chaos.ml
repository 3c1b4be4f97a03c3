(** E15 — exactly-once session chaos: crash-fuzz the {!Onll_session}
    client protocol and audit it at the {e identity} level.

    One run is: [n_procs] clients, each driving its own durable session
    over a shared object (plain, mirrored or sharded), submitting a
    deterministic per-client workload under a seeded random schedule with
    transient flush/fence faults — cut by a crash, recovered under
    nested-crash adversity, resumed (every client resolves its in-doubt
    operation from inside the simulated world, then finishes its
    workload) and audited:

    - {b exactly-once}: for every logical client operation, the number of
      identities that linearized is at most one — re-invocation after a
      crash (or after a timeout) must never duplicate an operation that
      survived;
    - {b no lost acks}: every operation acknowledged to the client is in
      the final history under one of its identities;
    - {b value}: the object's final state equals what the per-identity
      application counts predict — duplicate-sensitive specs (counter,
      ledger) make both duplication and loss observable in the state
      itself, not just in the bookkeeping;
    - {b idempotence}: a second {!Onll_session.Make.recover} immediately
      after the first is a no-op;
    - {b liveness}: the post-crash era completes.

    The {!arm.Naive} arm is the calibration: the same workload driven as
    {e at-least-once} — volatile sequence numbers, blind re-invocation
    after a timeout or a restart, never asking
    {!Onll_core.Onll.CONSTRUCTION.was_linearized} first. Its duplicates
    are counted (not flagged): a campaign in which the naive arm never
    duplicates proves nothing about the session arms' zeros.

    Seeds where [seed mod 5 = 0] are {e transient storms} (no crash, but
    flush/fence failure runs long enough to escape the log layer's
    bounded retry), exercising the in-run half of the protocol: backoff,
    in-doubt detection, and timeout resolution without a restart. *)

open Onll_util
open Onll_machine
module Faults = Onll_faults.Faults

(** Which backend the sessions drive — or the at-least-once baseline. *)
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
  session_log_capacity : int;
      (** client-record log capacity; small values force the session's
          summary-first compaction under fire *)
  fault : Faults.Plan.t;
  fault_scope : [ `All | `Primary_only ];
  nested_crashes : int;
}

(* The per-seed grid: every knob a pure function of (arm, seed). Storm
   seeds ([seed mod 5 = 0]) trade the crash for transient-fault runs long
   enough ([max_consecutive_transients] above the log layer's retry
   budget) that faults escape into the session's own backoff/in-doubt
   machinery; all other seeds crash mid-era under mild transients. Media
   corruption is reserved for the mirrored arm and confined to primaries
   — the scope mirrors provably heal — so the exactly-once bar stays at
   zero across every session arm. *)
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
    session_log_capacity =
      (if (not storm) && seed mod 4 = 2 then 640 else 4096);
    fault;
    fault_scope = (match arm with Mirrored -> `Primary_only | _ -> `All);
    nested_crashes = seed mod 2;
  }

(** Arm-agnostic recovery resolution (value dropped), for harness
    bookkeeping. *)
type res =
  | R_none
  | R_applied of Onll_core.Onll.op_id
  | R_reinvoked of Onll_core.Onll.op_id * Onll_core.Onll.op_id
  | R_refused of Onll_core.Onll.op_id
  | R_unresolved of Onll_core.Onll.op_id

type result = {
  crashed : bool;
  logical : int;  (** logical client operations attempted *)
  acked : int;  (** operations acknowledged to their client *)
  duplicates : int;  (** extra linearized identities beyond one/logical op *)
  lost_acks : int;  (** acknowledged ops absent from the final history *)
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
    "session.timeouts";
    "session.sheds";
    "session.refused";
    "session.resolved.applied";
    "session.resolved.reinvoked";
    "session.retries";
    "session.indoubt";
    "session.compactions";
    "ops.session";
    "fences.session";
    "fences.session.compact";
    "ops.update";
    "fences.update";
    "faults.injected";
    "retries";
    "crashes";
    "recoveries";
  ]

module Make (S : Onll_core.Spec.S) = struct
  module Sess_err = Onll_session

  (* One rig = backend + attached sessions behind closures, so plain,
     mirrored and sharded backends (whose module types differ) drive the
     identical harness body. *)
  type rig = {
    r_submit :
      int -> S.update_op -> (S.value, Onll_session.error) Stdlib.result;
    r_recover : int -> res;
    r_pending : int -> (Onll_core.Onll.op_id * S.update_op) option;
    r_last_ids : int -> Onll_core.Onll.op_id list;
    r_naive : proc:int -> seq:int -> S.update_op -> S.value;
    r_was : S.update_op -> Onll_core.Onll.op_id -> bool;
    r_read : S.read_op -> S.value;
    r_backend_recover : unit -> unit;
    r_history_ids : unit -> Onll_core.Onll.op_id list;
        (* exact membership: ids in the live trace or the recovery-adopted
           set right now — unlike [r_was], never coarsened by the
           per-process checkpoint floor (which deems every seq below the
           highest summarised one linearized, and so answers [true] for
           identities a session allocated but abandoned) *)
  }

  let make_rig (module M : Onll_machine.Machine_sig.S) plan sink =
    let module Sess = Onll_session.Make (M) (S) in
    let cfg ~replicas =
      {
        Onll_core.Onll.Config.log_capacity = plan.log_capacity;
        replicas;
        local_views = false;
        region_suffix = "";
        sink;
      }
    in
    let backend, backend_recover, history_ids =
      match plan.arm with
      | Sharded ->
          let module C = Onll_sharded.Make (M) (S) in
          let obj = C.make ~shards:4 (cfg ~replicas:1) in
          ( {
              Sess.b_update_detectable = C.update_detectable obj;
              b_was_linearized = C.was_linearized obj;
              b_read = C.read obj;
              b_degraded = (fun () -> C.degraded obj);
              b_pressure = (fun () -> C.log_fill obj);
              b_compact = (fun () -> ignore (C.compact obj : int));
            },
            (fun () -> ignore (C.recover_report obj)),
            fun () ->
              List.concat
                (List.init (C.shards obj) (fun i ->
                     let sh = C.shard obj i in
                     List.map fst (C.Shard.recovered_ops sh)
                     @ List.filter_map
                         (fun (_, _, env) ->
                           Option.map C.Shard.envelope_id env)
                         (C.Shard.trace_nodes sh))) )
      | Plain | Mirrored | Naive ->
          let replicas = if plan.arm = Mirrored then 2 else 1 in
          let module C = Onll_core.Onll.Make (M) (S) in
          let obj = C.make (cfg ~replicas) in
          ( {
              Sess.b_update_detectable = C.update_detectable obj;
              b_was_linearized = (fun _op id -> C.was_linearized obj id);
              b_read = C.read obj;
              b_degraded = (fun () -> C.degraded obj);
              b_pressure = (fun () -> C.log_fill obj);
              b_compact = (fun () -> ignore (C.compact obj : int));
            },
            (fun () -> ignore (C.recover_report obj)),
            fun () ->
              List.map fst (C.recovered_ops obj)
              @ List.filter_map
                  (fun (_, _, env) -> Option.map C.envelope_id env)
                  (C.trace_nodes obj) )
    in
    let scfg =
      {
        Onll_session.default_config with
        log_capacity = plan.session_log_capacity;
        replicas = (if plan.arm = Mirrored then 2 else 1);
        (* Shedding off: admission control has its own deterministic
           test; here every submission must reach the exactly-once
           machinery. *)
        high_watermark = 1.0;
      }
    in
    let sessions =
      if plan.arm = Naive then [||]
      else
        Array.init plan.n_procs (fun client ->
            Sess.attach ~config:scfg ~sink ~client backend)
    in
    let resof = function
      | Sess.No_pending -> R_none
      | Sess.Was_applied id -> R_applied id
      | Sess.Reinvoked (old_id, fresh, _) -> R_reinvoked (old_id, fresh)
      | Sess.Refused id -> R_refused id
      | Sess.Unresolved (id, _) -> R_unresolved id
    in
    {
      r_submit = (fun p op -> Sess.submit sessions.(p) op);
      r_recover = (fun p -> resof (Sess.recover sessions.(p)));
      r_pending = (fun p -> Sess.pending sessions.(p));
      r_last_ids = (fun p -> Sess.last_attempt_ids sessions.(p));
      r_naive =
        (fun ~proc:_ ~seq op -> backend.Sess.b_update_detectable ~seq op);
      r_was = (fun op id -> backend.Sess.b_was_linearized op id);
      r_read = (fun r -> backend.Sess.b_read r);
      r_backend_recover = backend_recover;
      r_history_ids = history_ids;
    }

  (* [op_of ~proc ~k] is the deterministic logical workload — logical op
     [k] of client [proc] — so the audit can reconstruct any operation
     (e.g. to route a sharded [was_linearized] query) from its key alone.
     [check ~read ~applied] receives the per-logical-op application
     counts (how many of its identities are in the final history) and
     cross-checks the object's state against them. *)
  let run ~plan ~op_of ~check () =
    let registry = Onll_obs.Metrics.create () in
    let sink = Onll_obs.Sink.make ~registry () in
    let sim =
      Sim.create ~sink ~max_processes:(max plan.n_procs 1)
        ~crash_policy:plan.policy ()
    in
    let mem = Sim.memory sim in
    let rig = make_rig (Sim.machine sim) plan sink in
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
    (* The identity ledger: every op_id each logical (client, k) ever
       tried, who owns each id, and which logical ops were acknowledged.
       Plain OCaml state — not simulated NVM — so it survives simulated
       crashes exactly like a test's own bookkeeping must. *)
    let tried : (int * int, Onll_core.Onll.op_id list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let owner : (Onll_core.Onll.op_id, int * int) Hashtbl.t =
      Hashtbl.create 64
    in
    let acked : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
    let logical lk =
      if not (Hashtbl.mem tried lk) then Hashtbl.replace tried lk (ref [])
    in
    let note lk id =
      logical lk;
      let ids = Hashtbl.find tried lk in
      if not (List.mem id !ids) then ids := id :: !ids;
      if not (Hashtbl.mem owner id) then Hashtbl.replace owner id lk
    in
    let ack lk = Hashtbl.replace acked lk () in
    (* Which identity each acknowledgement was credited to. The final
       audit needs this because raw [was_linearized] is floor-coarsened:
       once a checkpoint summarises an op, every lower seq of that process
       answers [true] — including identities the session allocated and
       abandoned without them ever reaching the object. Exact trace
       membership covers everything still materialised; the floor answer
       is trusted only for the identity that actually produced the ack. *)
    let credited : (int * int, Onll_core.Onll.op_id list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let credit lk id =
      let l =
        match Hashtbl.find_opt credited lk with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace credited lk l;
            l
      in
      if not (List.mem id !l) then l := id :: !l
    in
    let violations = ref [] in
    let fail fmt =
      Format.kasprintf (fun s -> violations := s :: !violations) fmt
    in
    let inflight = Array.make plan.n_procs None in
    let kcur = Array.make plan.n_procs 1 in
    let nseq = Array.make plan.n_procs 0 in
    (* Resolve client [p]'s in-doubt operation and fold the resolution
       into the ledger. The resolved identity may belong to an *earlier*
       logical op than the one in flight (its durable ack watermark only
       rides on the next record), so attribution goes through [owner]. *)
    let resolve p =
      let rec attempt n =
        match rig.r_recover p with
        | r -> r
        | exception Onll_nvm.Memory.Transient_fault _ when n < 5 ->
            attempt (n + 1)
      in
      match attempt 0 with
      | R_none -> ()
      | R_applied id -> (
          match Hashtbl.find_opt owner id with
          | Some lk ->
              credit lk id;
              ack lk
          | None -> (
              match inflight.(p) with
              | Some k ->
                  note (p, k) id;
                  credit (p, k) id;
                  ack (p, k)
              | None -> ()))
      | R_reinvoked (old_id, fresh) ->
          let lk =
            match Hashtbl.find_opt owner old_id with
            | Some lk -> lk
            | None -> (
                match inflight.(p) with
                | Some k -> (p, k)
                | None -> (p, kcur.(p)))
          in
          note lk old_id;
          note lk fresh;
          credit lk fresh;
          ack lk
      | R_refused id | R_unresolved id -> (
          (* The id is the durable (post-refold) pending identity; record
             it for its logical op even though it stays unresolved. *)
          match Hashtbl.find_opt owner id with
          | Some lk -> note lk id
          | None -> (
              match inflight.(p) with
              | Some k -> note (p, k) id
              | None -> ()))
    in
    let stalled = Array.make plan.n_procs false in
    (* One logical session op. A [Timeout] is indeterminate; what the
       client may do next depends on whether the in-doubt operation was
       ordered. If it was (or will be, via helping), this process's
       unpersisted trace node stands until recovery — driving the object
       again from the same process would break Prop 5.2's fuzzy-window
       bound, exactly as a real thread wedged on a stuck persist
       instruction cannot proceed — so the client {e stalls} until the
       restart. If it was never ordered, resolving in place is safe: the
       object was untouched and recovery re-invokes under a fresh
       identity. *)
    let session_op p k =
      let op = op_of ~proc:p ~k in
      let rec go retries =
        if Hashtbl.mem acked (p, k) then `Done
        else begin
          inflight.(p) <- Some k;
          logical (p, k);
          match rig.r_submit p op with
          | r -> (
              List.iter (note (p, k)) (rig.r_last_ids p);
              match r with
              | Ok _ ->
                  (match List.rev (rig.r_last_ids p) with
                  | id :: _ -> credit (p, k) id
                  | [] -> ());
                  ack (p, k);
                  inflight.(p) <- None;
                  `Done
              | Error Sess_err.Timeout -> (
                  match rig.r_pending p with
                  | Some (id, pop) when rig.r_was pop id -> `Stall
                  | Some _ when retries < 3 ->
                      resolve p;
                      if Hashtbl.mem acked (p, k) then begin
                        inflight.(p) <- None;
                        `Done
                      end
                      else if rig.r_pending p <> None then `Stall
                      else go (retries + 1)
                  | Some _ -> `Stall
                  | None -> if retries < 3 then go (retries + 1) else `Skip)
              | Error _ ->
                  inflight.(p) <- None;
                  `Skip)
        end
      in
      go 0
    in
    (* The at-least-once baseline: volatile sequence numbers, no durable
       intent, and — after a restart — blind re-invocation, never a
       [was_linearized] question first. Its duplicates calibrate the
       audit. *)
    let naive_op p k =
      let op = op_of ~proc:p ~k in
      logical (p, k);
      inflight.(p) <- Some k;
      let seq = nseq.(p) in
      nseq.(p) <- seq + 1;
      let id = { Onll_core.Onll.id_proc = p; id_seq = seq } in
      note (p, k) id;
      match rig.r_naive ~proc:p ~seq op with
      | _ ->
          credit (p, k) id;
          ack (p, k);
          inflight.(p) <- None;
          `Done
      | exception Onll_nvm.Memory.Transient_fault _ ->
          (* the persist instruction is stuck; an at-least-once client
             hangs here until its process restarts *)
          `Stall
    in
    let one_op p k =
      if plan.arm = Naive then naive_op p k else session_op p k
    in
    let era_to p limit =
      let continue = ref true in
      while !continue && kcur.(p) <= limit do
        let k = kcur.(p) in
        match one_op p k with
        | `Done | `Skip -> kcur.(p) <- max kcur.(p) (k + 1)
        | `Stall ->
            stalled.(p) <- true;
            continue := false
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
    begin
      (* Every run closes with a crash-recovery cycle: runs the scheduler
         did not cut (storm seeds, or a crash step past the era) crash
         here instead. Without it, operations stalled in-doubt at era end
         would stay ordered-but-unavailable forever — durable via
         helping, yet invisible to fence-free reads — and the final-state
         cross-check would have nothing well-defined to compare against.
         Recovery is also precisely the protocol's promised resolution
         point, so the audit always exercises it. *)
      if not crashed then Onll_nvm.Memory.crash mem ~policy:plan.policy;
      Faults.set_rot handle false;
      (* Backend recovery under nested-crash adversity, chaos-style: each
         armed firing is a real crash (media may corrupt again, per plan)
         followed by a fresh attempt; the last attempt runs unarmed. *)
      let rng = Splitmix.create (plan.seed lxor 0x5E55) in
      let rec go budget =
        if budget > 0 && plan.nested_crashes > 0 then
          Faults.arm_recovery_crash handle ~at_op:(Splitmix.int rng 24)
        else Faults.disarm handle;
        match rig.r_backend_recover () with
        | () -> Faults.disarm handle
        | exception Onll_nvm.Memory.Injected_crash ->
            incr nested_fired;
            Onll_nvm.Memory.crash mem ~policy:plan.policy;
            go (budget - 1)
      in
      go plan.nested_crashes;
      (* Era 2, inside the simulated world: every client resolves its own
         in-doubt operation ([recover] must run as the owning process),
         then finishes its workload plus [post_ops] more. *)
      let total = plan.ops_per_proc + plan.post_ops in
      let post p _ =
        stalled.(p) <- false;
        if plan.arm = Naive then begin
          (match inflight.(p) with
          | Some k ->
              (* at-least-once restart: re-invoke the in-flight op blindly
                 — the duplicate source when it had already landed *)
              (match naive_op p k with `Done | `Skip | `Stall -> ());
              kcur.(p) <- max kcur.(p) (k + 1)
          | None -> ());
          era_to p total
        end
        else begin
          (* A crash may have cut [submit] before it reported the identity
             it tried; [resolve] attributes the durable pending identity
             (via [owner], falling back to [inflight]) from the refolded
             client record. The *volatile* pending id must never be noted
             here: a total wipe of the (never-durable) client record
             legitimately recycles those identities for later logical
             ops — only what refold reads back from media names this op. *)
          resolve p;
          if rig.r_pending p = None then begin
            (* Idempotence: an immediate second recovery resolves nothing
               new (it may re-answer [Was_applied] for an operation whose
               resolution is not yet durably acked). *)
            (match rig.r_recover p with
            | R_none | R_applied _ -> ()
            | R_reinvoked _ | R_refused _ | R_unresolved _ ->
                fail "client %d: second recover was not a no-op" p);
            (match inflight.(p) with
            | Some k when Hashtbl.mem acked (p, k) ->
                inflight.(p) <- None;
                kcur.(p) <- max kcur.(p) (k + 1)
            | _ -> ());
            era_to p total
          end
        end
      in
      (match
         Sim.run sim Onll_sched.Sched.Strategy.round_robin
           (Array.init plan.n_procs post)
       with
      | Onll_sched.Sched.World.Completed -> ()
      | _ -> fail "post-crash era did not complete")
    end;
    (* The exactly-once audit, at the identity level: per logical op,
       count how many of the identities it ever tried are in the final
       history. More than one = duplicate (a violation for session arms,
       the expected calibration signal for the naive arm); zero for an
       acknowledged op = lost ack (a violation everywhere).

       Membership is exact trace/recovered membership, falling back to
       [was_linearized] only for the identity credited with the ack:
       the raw oracle's checkpoint-floor shortcut answers [true] for
       {e every} seq below the highest summarised one, which would
       convict abandoned session identities that never reached the
       object. A real duplicate both executed, so both copies are
       materialised (and the value cross-check below backstops the one
       case — both copies summarised — identity membership cannot see). *)
    let exact : (Onll_core.Onll.op_id, unit) Hashtbl.t =
      Hashtbl.create 256
    in
    List.iter (fun id -> Hashtbl.replace exact id ()) (rig.r_history_ids ());
    let applied =
      Hashtbl.fold (fun lk ids acc -> (lk, ids) :: acc) tried []
      |> List.map (fun (((p, k) as lk), ids) ->
             let op = op_of ~proc:p ~k in
             let cred =
               match Hashtbl.find_opt credited lk with
               | Some l -> !l
               | None -> []
             in
             let in_history id =
               Hashtbl.mem exact id
               || (List.mem id cred && rig.r_was op id)
             in
             let ids = List.sort_uniq compare !ids in
             (lk, List.length (List.filter in_history ids)))
      |> List.sort compare
    in
    let duplicates = ref 0 in
    let lost = ref 0 in
    List.iter
      (fun ((p, k), n) ->
        if n > 1 then begin
          duplicates := !duplicates + (n - 1);
          if plan.arm <> Naive then
            fail "duplicate: client %d op %d linearized under %d identities"
              p k n
        end;
        if Hashtbl.mem acked (p, k) && n = 0 then begin
          incr lost;
          fail "lost ack: client %d op %d acknowledged but not in history" p
            k
        end)
      applied;
    (* Duplicate-sensitive value cross-check: the state must equal what
       the per-identity application counts predict. *)
    List.iter
      (fun m -> violations := m :: !violations)
      (check ~read:rig.r_read ~applied);
    Faults.remove handle;
    {
      crashed;
      logical = List.length applied;
      acked = Hashtbl.length acked;
      duplicates = !duplicates;
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
   balance counts every applied deposit. *)
let counter_op ~proc:_ ~k:_ = Onll_specs.Counter.Increment

let counter_check ~read ~applied =
  let expect = List.fold_left (fun a (_, n) -> a + n) 0 applied in
  let got = read Onll_specs.Counter.Get in
  if got = expect then []
  else
    [
      Printf.sprintf "counter: value %d but %d applied increments" got expect;
    ]

let ledger_account p = Printf.sprintf "c%d" p

let ledger_op ~proc ~k =
  if k = 1 then Onll_specs.Ledger.Open (ledger_account proc)
  else Onll_specs.Ledger.Deposit (ledger_account proc, 1)

let ledger_check ~n_procs ~read ~applied =
  List.concat
    (List.init n_procs (fun p ->
         let opened =
           List.exists (fun ((q, k), n) -> q = p && k = 1 && n > 0) applied
         in
         let deposits =
           List.fold_left
             (fun a ((q, k), n) -> if q = p && k > 1 then a + n else a)
             0 applied
         in
         let expect = if opened then Some deposits else None in
         match read (Onll_specs.Ledger.Balance (ledger_account p)) with
         | Onll_specs.Ledger.Amount got when got = expect -> []
         | Onll_specs.Ledger.Amount got ->
             [
               Printf.sprintf
                 "ledger: account c%d balance %s but applied ops predict %s"
                 p
                 (match got with Some n -> string_of_int n | None -> "none")
                 (match expect with
                 | Some n -> string_of_int n
                 | None -> "none");
             ]
         | _ -> [ Printf.sprintf "ledger: Balance(c%d) returned non-amount" p ]))

let run_e15 ~seeds_per_arm =
  let module Counter = Make (Onll_specs.Counter) in
  let module Ledger = Make (Onll_specs.Ledger) in
  let n_procs = (plan_of_seed 1).n_procs in
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
          (Counter.run ~op_of:counter_op ~check:counter_check)
          a;
        arm ~spec:"ledger"
          (Ledger.run ~op_of:ledger_op ~check:(ledger_check ~n_procs))
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
        ("timeouts", "session.timeouts");
        ("indoubt", "session.indoubt");
        ("reinvoked", "session.resolved.reinvoked");
        ("compact", "session.compactions");
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
