(** ONLL — Order Now, Linearize Later: the paper's universal construction.

    Given a machine (simulated or native — {!Onll_machine.Machine_sig.S})
    and a deterministic sequential specification ({!Spec.S}), {!Make}
    produces a lock-free durably linearizable implementation of the object
    that issues {e at most one persistent fence per update operation and
    none per read-only operation} (Theorem 5.1). {!Make_wait_free} is the
    §8 variant over a Kogan–Petrank-style wait-free execution trace, and
    {!Make_combining} §8's group commit: the same construction under a
    persist policy where concurrent updates share fences.

    An update runs the paper's three stages — {b order} (append a
    descriptor to the transient execution trace, fixing the linearization
    order), {b persist} (append the operation and every not-yet-durable
    predecessor to the caller's single-fence persistent log), {b linearize}
    (set the descriptor's flag durable) — and computes its return value
    from the trace prefix. A stale update ({!CONSTRUCTION.update_stale})
    defers the persist stage: it acknowledges its node unfenced under a
    staleness budget, and an update fences its window only when it holds
    an operation still in flight or has reached the tightest budget in
    it. Reads never write NVM. §8's read acceleration
    (the paper's local views) is one published state per trace node
    ({!Slot}): every operation is applied once, and a read at a published
    node applies none.

    The durable state {e is} the set of per-process logs; {!recover}
    rebuilds the transient trace from them after a full-system crash
    (Listing 5). The construction is {e detectable} [Friedman et al. 15]:
    operations carry client-visible identities and {!was_linearized}
    answers, post-recovery, whether a given operation took effect. *)

type op_id = Record_log.op_id = { id_proc : int; id_seq : int }
(** Identity of an update: the invoking process and a per-process sequence
    number (chosen by the client with {!Make.update_detectable}, or
    allocated automatically). *)

val pp_op_id : Format.formatter -> op_id -> unit

exception Recovery_corrupt of string
(** Recovery found mutually inconsistent logs — impossible for logs written
    by this implementation surviving a crash (Prop. 5.10), so it indicates
    external corruption or a bug. Raised by the strict
    {!CONSTRUCTION.recover}; the hardened {!CONSTRUCTION.recover_report}
    reports the damage instead. *)

exception Log_full of string
(** Raised (with the log's region name) when an update or checkpoint record
    cannot be made durable even after auto-compaction — the live history
    alone exceeds the log's capacity, so this is terminal for the
    configured size. The transient {!Onll_plog.Plog.Full} does not escape
    the construction: a log running short of room for its next checkpoint
    is first compacted ({!CONSTRUCTION.compact}). *)

(** What a hardened recovery found and did — the precise detected-loss
    set the chaos campaign (E12) audits against. *)
module Recovery_report : sig
  type t = Record_log.Recovery_report.t = {
    recovered_ops : int;  (** operations replayed into the trace *)
    base_idx : int;  (** deepest surviving checkpoint *)
    gap_indices : int list;
        (** execution indices missing from every log (all durable copies
            corrupted), ascending; only the prefix below the first gap is
            adopted *)
    dropped : op_id list;
        (** operations that survived in some log but sit above the first
            gap, so they could not be replayed *)
    disagreements : int list;
        (** indices where two logs named different operations *)
    decode_failures : int;
        (** CRC-valid entries whose payload did not decode *)
    salvage : (string * Onll_plog.Plog.salvage_report) list;
        (** per-log media repairs (log region name, report) *)
    lost_acked : op_id list;
        (** E20 (the stale tier): operations that were acknowledged to
            their caller fence-free under a staleness budget
            ({!CONSTRUCTION.update_stale}) and whose sole copy was still
            volatile at the crash, by process, oldest first. Only the
            engine's per-process ledger of unfenced acknowledgements
            knows an operation was acked, so an object that never
            deferred reports [[]]. Budgeted loss is admitted, precisely
            accounted, and bounded by the budget; it does {e not} flip
            {!detected_loss}, which reports loss of {e durable} data. *)
  }

  val detected_loss : t -> bool
  (** Did recovery detect any durable-data loss? True iff there are gaps,
      dropped operations, disagreements, decode failures, or a log
      quarantined interior corruption. Torn-tail truncation alone is {e
      not} loss: a torn final entry was never acknowledged. Conservative:
      a quarantined span whose records were helped into other logs loses
      no operation but still reports [true]. *)

  val clean : t -> bool
  (** [not (detected_loss r)]. *)

  val check : t -> unit
  (** The strict reading of a report, as {!CONSTRUCTION.recover} applies
      it: @raise Recovery_corrupt on a disagreement, a gap or an
      undecodable entry. *)

  val merge : t list -> t
  (** The report of several independent objects (shards) recovered
      together: counts and base indices summed, lists concatenated in
      order. *)

  val pp : Format.formatter -> t -> unit

  val to_metrics : ?prefix:string -> Onll_obs.Metrics.t -> t -> unit
  (** Fold the report into a registry under [prefix] (default
      ["recovery."]): counters [recovered_ops]/[gaps]/[dropped]/
      [disagreements]/[decode_failures] and the salvage aggregates
      ([salvage.torn_tail_bytes], [salvage.quarantined_spans],
      [salvage.bytes_lost], [salvage.repaired_entries],
      [salvage.repaired_bytes]), gauges [base_idx] and [detected_loss]
      (0/1). The shape [onll stats] and the chaos campaigns export. *)

  val to_json : ?meta:(string * string) list -> t -> string
  (** The report as a canonical {!Onll_obs.Export.json} snapshot (a fresh
      registry folded via {!to_metrics}, tagged [report=recovery] plus
      [meta]). *)
end

(** Listing 5's one decision: which logged operations a restarted object
    adopts. The construction and the §3.1 baselines
    ({!Onll_baselines.Linearize_early}) decode their logs and hand the
    entries here. *)
module Adoption : sig
  type 'e entry = 'e Record_log.Adoption.entry = {
    idx : int;  (** execution index *)
    proc : int;  (** identity: process ... *)
    seq : int;  (** ... and its sequence number *)
    env : 'e;  (** the construction's envelope *)
    resident : bool;
        (** a log holds this copy; [false] for an oracle entry, whose only
            durable copy is elsewhere (E19: a coordinator's commit
            record) *)
  }

  val run :
    base_idx:int ->
    floors:int array ->
    'e entry array ->
    adopt:('e entry -> unit) ->
    Recovery_report.t * int array
  (** [run ~base_idx ~floors entries ~adopt] rebuilds the history above a
      base checkpoint at [base_idx] whose per-process sequence floors are
      [floors]. It keeps the first copy of each index (log copies first,
      in array order) and records the indices whose copies name different
      operations: helping stores one operation in several logs, and its
      copies must agree. It calls [adopt] on the longest contiguous run of
      indices above the base, in index order: anything above the first
      missing index cannot be replayed without fabricating the missing
      operation. Under the clean crash model such a gap is impossible
      (Prop 5.10); under media faults it means every durable copy of the
      operation was corrupted.

      The report's [recovered_ops], [base_idx], [gap_indices] (missing
      indices up to the highest log-resident one), [dropped] (log-resident
      operations above the adopted run, in index order) and
      [disagreements] are filled in; its [decode_failures], [salvage] and
      [lost_acked] are empty for the caller to set. Oracle entries never
      create gaps or dropped operations, and count only above the base
      and when no log copy carries their identity. The array is [floors]
      bumped past every identity kept, adopted or not, so no
      post-recovery update can reuse a pre-crash identity and
      [was_linearized] can answer for every identity recovery saw.
      [entries] is left sorted by index, log copies first, stably: an
      array already in that order is not sorted again. A
      caller seals the [dropped] operations before its next append, as
      core and group commit do ({!Record_log.Make.recover_logs}). *)
end

val prune_every : int
(** §8's trace pruning runs on its own cadence, apart from compaction: an
    update whose node lies [prune_every] (1024) or more execution indices
    above the last such prune, once its node is durable and its state is
    published, makes that node the trace's base ({!Trace_intf.S.rebase}),
    with no fence and no fold. It passes no operation acknowledged
    unfenced and no staged transaction sub-operation, and it finishes
    each failed persist below it, which the durable node covers. So the
    reachable trace, and the heap with it, follows the state rather than
    the log's room: at most about [prune_every] nodes plus the ones in
    flight, checkpoint or not. Pruned identities stay answerable
    ({!CONSTRUCTION.was_linearized}) from the base's floors. *)

(** Construction-time configuration — the one record every instantiation's
    {!CONSTRUCTION.make} takes. Build it by functional update of
    {!Config.default}:
    {[
      C.make { Onll.Config.default with sink; log_capacity = 1 lsl 20 }
    ]} *)
module Config : sig
  type t = {
    log_capacity : int;  (** per-process log entries area, bytes *)
    replicas : int;
        (** durable redundancy: each per-process log is mirrored over this
            many independent NVM regions (default 1 = unmirrored). All
            replica flushes of an append drain under one persistent fence,
            so Theorem 5.1's one-fence-per-update bound is unchanged;
            recovery and {!CONSTRUCTION.scrub} repair single-replica damage
            from an intact copy instead of losing it. *)
    local_views : bool;
        (** read by nothing: every object publishes its trace states
            ({!Slot}); kept so configurations that set it compile *)
    region_suffix : string;
        (** appended to the spec name in every persistent region name
            (default [""]). The sharded construction ({!Onll_sharded})
            names shard [i]'s logs ["<spec>.s<i>..."] through this, so
            per-shard durable state is self-describing on media. *)
    sink : Onll_obs.Sink.t;
        (** receives the object-layer events ([Help], [Checkpoint],
            [Recovery], [Cas_retry], [Log_append], …) and hosts the
            per-operation attribution metrics ([ops.update],
            [fences.update], [fuzzy.window], …). Install the same sink in
            the machine (e.g. [Sim.create ~sink]) to interleave machine
            events ([Fence], [Flush], [Crash]) on one logical clock. *)
  }

  val default : t
  (** 64 KiB logs, unmirrored, {!Onll_obs.Sink.null}. *)
end

(** Everything the old one-question-per-call introspection functions
    answered, gathered by a single durable scan per log. *)
module Snapshot : sig
  type log = Record_log.Snapshot.log = {
    log_name : string;  (** persistent region name *)
    live_bytes : int;
    used_bytes : int;
    entry_count : int;  (** valid entries from the head *)
    ops_per_entry : int list;
        (** operations per entry (0 for checkpoints and for entries that
            do not decode); an entry with more than one operation exposes
            helping *)
  }

  type t = Record_log.Snapshot.t = {
    latest_available_idx : int;
    max_fuzzy_window : int;
        (** largest fuzzy window observed at any persist step (Prop. 5.2
            bounds it by the machine's [max_processes]) *)
    degraded : bool;
        (** sticky degraded-mode flag: a recovery or scrub of this object
            detected durable data it could not repair. The object keeps
            serving — the loss is admitted, never silent. *)
    logs : log list;  (** per process, in process order *)
  }
end

(** The interface every instantiation provides. *)
module type CONSTRUCTION = sig
  type state
  type update_op
  type read_op
  type value

  type t
  (** A durable object: a transient execution trace plus one persistent log
      per process. *)

  val make : Config.t -> t
  (** Allocate a fresh object with empty per-process logs. The
      {!Config.t.sink} is threaded through every layer the object owns —
      its execution trace (CAS retries, helping), its persistent logs
      (appends, compaction) and its own lifecycle events — and hosts the
      per-operation attribution metrics; with the default null sink every
      instrumentation point is a single boolean test. *)

  val sink : t -> Onll_obs.Sink.t
  (** The sink this object was built with ({!Onll_obs.Sink.null} unless
      {!make} installed one). *)

  (** {1 Operations} *)

  val update : t -> update_op -> value
  (** Apply an update. Linearizable, durable on response, exactly one
      persistent fence on the common path. When the caller's log runs
      short of room for its next checkpoint
      ({!Onll_plog.Plog.Make.append_compacting}), the update first runs
      {!compact}, whose fences it pays.
      @raise Onll_nvm.Memory.Transient_fault when a fault escapes the
      log's bounded retry during the persist stage: the operation is
      ordered but not yet durable, and the process's next update first
      persists it (one more fence, only on this path).
      @raise Onll.Log_full when even that cannot make room (the live
      history alone exceeds the log's capacity). *)

  val update_with_id : t -> update_op -> op_id * value
  (** Like {!update}, also returning the operation's identity. *)

  val update_detectable : t -> seq:int -> update_op -> value
  (** Like {!update} with a {e client-chosen} sequence number, so the
      client can interrogate {!was_linearized} about this exact invocation
      after a crash even though the call never returned. Sequence numbers
      must be fresh (strictly above any previously used by this process —
      including numbers consumed by {!update}/{!update_with_id}, which
      allocate from the same per-process counter).

      {b Reuse is rejected before any effect}: a duplicate [seq] — whether
      with the same payload (an at-least-once retry) or a different one
      (an identity collision) — raises [Invalid_argument] {e before} the
      operation is ordered, appended or applied; the object's state,
      logs and the reused identity's {!was_linearized} answer are
      untouched. Detectability depends on identities being unique, so
      the construction refuses rather than guesses. Pinned by
      [test/test_onll.ml]. {!Onll_core.Client_table} keeps the same
      answer in the object's state instead, which is what
      {!Onll_session} and [onll serve] build on.
      @raise Invalid_argument on reuse, with no state change. *)

  val update_stale : t -> budget:int -> update_op -> op_id * value
  (** Buffered durable linearizability ("The Path to Durable
      Linearizability"), E20: the update is ordered (under [budget]) and
      linearized as {!update}'s, and then acknowledged {e unfenced} —
      visible to reads, durable later — unless the stale operations of
      its window (walked back to the first durable node), this one
      included, reach the tightest budget any of them was given. Then it
      fences the whole window instead, as {!update} does: a {e drain},
      after which every acknowledged node below it is durable. Before it
      drains it waits, a bounded number of its own steps, while an
      operation is in flight below it, whose fence may cover the window.
      So fewer acknowledged operations than that budget are ever at risk,
      they are always the newest ones (a crash loses a suffix, never an
      interior operation), and a solo process pays one fence every
      [budget] updates. {!update} and every strict update fence the
      window too, so they cover every deferred predecessor. Returns the
      operation's identity, which the process's ledger keeps until a
      fence covers it.
      @raise Invalid_argument if [budget < 1], before any effect. *)

  val flush : t -> unit
  (** Drain now: one fence if any acknowledged operation is unfenced,
      attributed to the checkpoint class, after finishing the calling
      process's update a fault cut short (as its next update would).
      After [flush] returns, every previously acknowledged operation is
      durable, and so is that update.
      @raise Onll_nvm.Memory.Transient_fault as {!update} does. *)

  val pending_ops : t -> int
  (** The acknowledged operations at risk now (fence-free, introspection). *)

  val risk_peak : t -> int
  (** The deepest window of stale operations an acknowledgement joined,
      itself included: a bound on the acknowledged operations ever at
      risk at once, below the tightest budget in use. *)

  val read : t -> read_op -> value
  (** Apply a read-only operation: no shared-memory writes, no NVM
      accesses, no fences. It sees every visible operation, acknowledged
      unfenced ones included (the stale tier's contract). *)

  (** {1 Crash recovery} *)

  val recover : t -> unit
  (** Rebuild the transient state from the durable logs (Listing 5): call
      after a crash, before the first post-crash operation. Idempotent.
      The recovered history contains every operation whose log append was
      fenced (in particular every update that responded), in execution
      order, starting from the deepest checkpoint. Runs the same hardened
      path as {!recover_report} (including durable log salvage), then
      insists the result was loss-free.
      @raise Recovery_corrupt if any durable data loss was detected. *)

  val recover_report : t -> Recovery_report.t
  (** Hardened recovery for media-faulted logs: salvages each log
      (quarantining interior corruption, truncating torn tails — see
      {!Onll_plog.Plog.Make.recover}), then adopts the longest contiguous
      history prefix above the deepest surviving checkpoint, and reports
      exactly what was lost instead of raising. The operations it drops
      are sealed before it returns: a checkpoint at the base naming them
      as exceptions to the sequence floors is fenced into every log that
      holds one, then their records vanish behind a skip marker
      ({!Onll_plog.Plog.Make.excise}). So none comes back at an index a
      new update reuses, and no later floor answers for one; a clean
      recovery pays nothing for this. Idempotent and re-entrant:
      interrupted by a crash at any durable operation, a re-run converges
      — every repair it performs is idempotent, and a final uninterrupted
      run yields the same adopted history. Sequence allocation is bumped
      past {e every} identity seen in any log — including unadoptable
      ones — so post-recovery updates never reuse a pre-crash id. Last,
      it settles the ledger of unfenced acknowledgements: each is either
      linearized now or named in [lost_acked]. *)

  val recover_unhardened : t -> unit
  (** The pre-hardening recovery: per-log truncating scan, first-wins on
      disagreements, silent stop at the first gap — no salvage, no report,
      no error. The deliberately broken calibration baseline for the chaos
      campaign (E12), which must catch it silently losing data; never use
      it otherwise. It forgets the ledger of unfenced acknowledgements. *)

  val scrub : t -> Onll_plog.Plog.scrub_report
  (** Online self-healing (E13): CRC-walk every process's log across its
      replicas {e while the object is live}, durably repairing any replica
      divergence from an intact copy and quarantining spans corrupt in
      every replica (which also sets {!degraded}). A cooperative step —
      call it from any process between operations, e.g. every N scheduler
      steps or from the [onll scrub] CLI verb. Returns the aggregated
      per-log report; fences are recorded under ["ops.scrub"]/
      ["fences.scrub"], never against the per-update Theorem 5.1
      attribution. With [replicas = 1] it still detects (and quarantines)
      rot early, it just cannot repair it. *)

  val degraded : t -> bool
  (** Sticky degraded-mode flag (also surfaced in {!Snapshot.t}): did any
      recovery or scrub of this object detect durable data it could not
      repair? The object keeps serving after such loss — degraded mode is
      the policy that loss is admitted and named, never silent and never
      fatal. *)

  val was_linearized : t -> op_id -> bool
  (** Detectable execution: did this operation take effect? For operations
      older than the deepest checkpoint the answer comes from the per-process
      sequence floors carried by materialised states, so compaction does not
      lose detectability. A floor's exceptions, the identities a degraded
      recovery dropped, stay [false] after a later operation raises the
      floor past them, across checkpoints and recoveries. *)

  val recovered_ops : t -> (op_id * int) list
  (** The operations recovery re-inserted, with their execution indices,
      oldest first (empty before any recovery). *)

  (** {1 §8 extensions: reclamation} *)

  val checkpoint : t -> int
  (** Summarise the history up to the newest visible operation
      (acknowledged unfenced ones included) into the caller's log and drop
      the log prefix this makes redundant. The checkpoint encodes the
      state once (the newest visible node's published state), appends one
      record and drops the prefix
      from the log's in-memory account of record keys
      ({!Onll_plog.Plog.Make.drop_upto}) without reading the log back —
      except the first checkpoint after a scrub, which rebuilds that
      account with one scan (recovery rebuilds it as it walks the log).
      Two persistent fences (the checkpoint append and the durable head
      update); a handful more only if the log was full and had to be
      physically compacted first. A checkpoint with no progress since the
      one already live in the caller's log appends nothing and pays no
      fence. Returns the summarised execution index.
      @raise Onll.Log_full if the checkpoint record cannot fit even after
      compaction. *)

  val compact : t -> int
  (** The one compaction, also run by the update path: {!checkpoint},
      make the checkpoint's node the trace's base with the state it
      encoded ({!Trace_intf.S.rebase}, no fold: the base index is the
      checkpoint's, as after recovery; with no new checkpoint, {!prune}
      below the live one), then move the caller's live log span to the
      front of its log ({!Onll_plog.Plog.Make.relocate}) so the dropped
      bytes take appends again. The state is encoded at most once. A
      deeper concurrent prune makes the prune a no-op. Returns the
      summarised execution index, as {!checkpoint} does.
      @raise Onll.Log_full if the checkpoint record cannot fit. *)

  val prune : t -> below:int -> unit
  (** Make trace nodes with execution index < [below] unreachable,
      materialising their cumulative state (the node at [below] must be
      visible), from the state published at [below - 1] — the fold
      that published a checkpoint's state left the one below in its slot,
      so [prune t ~below:(checkpoint t)] applies nothing. A prune at or
      below the current base is a no-op. A node obtained before the prune
      passed it still computes ({!Wf_trace} keeps each node's base).
      @raise Invalid_argument if the node at [below] does not exist or is
      not visible. *)

  (** {1 Introspection (tests, scenarios, reports)} *)

  type envelope

  val envelope_id : envelope -> op_id
  val envelope_op : envelope -> update_op

  val trace_nodes : t -> (int * int * envelope option) list
  (** Reachable trace nodes, oldest first: (execution index, flag —
      {!Trace_intf.ordered}, {!Trace_intf.durable} or the budget an
      acknowledged node was acked under — operation, [None] for the
      sentinel). *)

  val trace_base : t -> int * state
  (** The trace's summarised base: index and materialised state. *)

  val current_state : t -> state
  (** State at the newest visible operation. *)

  val snapshot : t -> Snapshot.t
  (** Every introspection statistic in one call, decoding each log once:
      durable watermark, fuzzy-window high-water mark, degraded flag and
      per-log space/entry statistics. *)

  val log_fill : t -> float
  (** The fullest log's live bytes over its capacity (the maximum over
      the object's logs). A {!checkpoint} shrinks the caller's live bytes
      to what it cannot summarise away. Read from each log's in-memory
      account in O(logs), with no durable load, so admission control can
      sample it on every submission. *)
end

(** {!CONSTRUCTION} plus the update's order/persist/linearize stages
    exposed separately, for a caller that runs the persist stage itself,
    and a recovery variant that accepts a committed-transaction oracle.

    A cross-shard transaction coordinator ({!Onll_txn}, E19) orders a
    sub-operation in each participant shard, persists the {e whole}
    transaction with one fence in its own region, and only then
    linearizes the staged nodes. A staged envelope carries the encoded
    commit payload, so any concurrent update that helps persist it
    (Listing 3's fuzzy window) thereby durably commits the whole
    transaction — that is what keeps a staged-but-uncommitted node from
    ever becoming durable {e without} its transaction. *)
module type TXN_CAPABLE = sig
  include CONSTRUCTION

  type staged
  (** An ordered-but-not-yet-linearized operation: a trace node that is
      not visible and has no durable copy of its own yet. *)

  val reserve_seq : ?seq:int -> t -> int
  (** Allocate (and consume) the calling process's next sequence number
      without running an update, so the coordinator can fix every
      sub-operation's identity before encoding the commit payload. With
      [seq], claim that number instead, as
      {!CONSTRUCTION.update_detectable} does.
      @raise Invalid_argument if [seq] is not above every number the
      process used; nothing is consumed then. *)

  val stage_txn : ?payload:string -> t -> seq:int -> update_op -> staged
  (** Order stage only: insert the operation into the trace, tagged with
      the transaction's commit [payload] when given, not yet visible,
      nothing written durably. [seq] must come from {!reserve_seq}.
      @raise Invalid_argument if [seq] was never reserved. *)

  val staged_idx : staged -> int
  (** The staged node's execution index — recorded in the commit payload
      so recovery can re-adopt the sub-operation in place. *)

  val finish_txn : t -> staged -> value
  (** Linearize stage: set the staged node durable and compute its
      return value from the trace prefix. No fences. Call only after the
      transaction's commit record is durable. *)

  val inject_txn_run : t -> (op_id * update_op) list -> int list
  (** Recovery-side re-apply for committed sub-operations absent from the
      rebuilt trace: insert each (oldest first), linearize it, and make
      the whole run durable as one fenced [Ops] record in the calling
      process's log — the record Listing 3 writes for a fuzzy window —
      returning the assigned execution indices. Identities are registered with
      {!CONSTRUCTION.recovered_ops} / {!CONSTRUCTION.was_linearized} and
      sequence allocation is bumped past them. *)

  val recover_txn :
    t ->
    extra:(int * op_id * update_op) list ->
    Recovery_report.t * string list
  (** Hardened recovery ({!CONSTRUCTION.recover_report}) with a
      committed-transaction oracle: [extra] lists sub-operations (staged
      execution index, identity, operation) whose durability is vouched
      for by a coordinator commit record. They fill index holes the shard
      logs alone cannot account for, and are never themselves reported as
      gaps or drops — an oracle entry that cannot be adopted in place is
      left to the coordinator sweep ({!Onll_txn}) to re-apply. Also
      returns every commit payload found riding in a logged envelope: the
      transactions committed by a helping process rather than by their
      coordinator. *)
end

(** How an update's persist stage treats the other processes' nodes in
    its fuzzy window. The policy is a functor argument of
    {!Make_generic}, fixed when the construction is built.

    {b Listing 3} ({!Listing3}): every update persists its own window
    under one fence and linearizes its own node. The construction is
    lock-free, and the paper's bounds are tight for it: at most one
    persistent fence per update (Theorem 5.1), and at least one in some
    execution (Theorem 6.3).

    {b Combining} ({!Combining}; §8's alternative in which "waiting
    processes pay the fence cost without issuing fences"). A persist
    marks every node of the window it wrote available after its fence,
    except a transaction's staged sub-operation. After the insert, an
    update whose node is not the newest in the trace lies in a newer
    node's window: it waits up to [wait_steps] of its own steps
    ([M.yield]) for its node's available flag, and returns without a
    fence of its own when the flag is set in time. The newest node waits
    too, at most [gather_steps], while other processes' nodes below it
    are in flight, so newer nodes can join its window; a newest node
    with nothing in flight below it persists at once. An update whose
    bound runs out persists its own window. The flag is the proof of
    durability, not {!Snapshot.t.latest_available_idx}: a staged node
    that {!TXN_CAPABLE.finish_txn} made available may sit above an older
    node with no window written.

    Every update still pays at most one fence (Theorem 5.1), and a solo
    process, whose node is always the newest with nothing below it in
    flight, pays exactly one. The waits are bounded, so the engine stays
    lock-free: a stalled process delays another by at most [wait_steps]
    of that one's steps and then costs it one fence. Theorem 6.3 covers
    lock-free implementations, so it still applies: some execution (solo,
    or a schedule that never lets a node be covered within the bound)
    pays one fence per update. Concurrent updates pay fewer, counted by
    the [fences.update] and [ops.update] attribution and the
    [fuzzy.window] histogram (each persist's window is the number of
    updates its fence covered). *)
module type PERSIST_POLICY = sig
  val gather_steps : int
  (** Steps the newest node waits for newer nodes to join its window. *)

  val wait_steps : int
  (** Steps an update waits in all to be covered by another persist;
      [0] selects Listing 3. *)
end

module Listing3 : PERSIST_POLICY
(** [gather_steps = wait_steps = 0]. *)

module Combining : PERSIST_POLICY
(** [gather_steps = 2], [wait_steps = 256]: on the native machine a
    step is a [sched_yield], well under a microsecond, so the bound
    outlasts a 50 µs fsync-class fence. *)

module Make_generic
    (M : Onll_machine.Machine_sig.S)
    (T : Trace_intf.S)
    (P : PERSIST_POLICY)
    (S : Spec.S) :
  TXN_CAPABLE
    with type state = S.state
     and type update_op = S.update_op
     and type read_op = S.read_op
     and type value = S.value

(** The paper's construction: ONLL over the lock-free Listing 2 trace. *)
module Make (M : Onll_machine.Machine_sig.S) (S : Spec.S) :
  TXN_CAPABLE
    with type state = S.state
     and type update_op = S.update_op
     and type read_op = S.read_op
     and type value = S.value

(** §8: the same construction over the Kogan–Petrank-style wait-free trace
    ({!Wf_trace}), with the same checkpoints, pruning and compaction. *)
module Make_wait_free (M : Onll_machine.Machine_sig.S) (S : Spec.S) :
  TXN_CAPABLE
    with type state = S.state
     and type update_op = S.update_op
     and type read_op = S.read_op
     and type value = S.value

(** Group commit (§8, E16): the lock-free trace under the {!Combining}
    policy. Recovery, compaction, detectability and the
    {!TXN_CAPABLE} stages are the construction's own. *)
module Make_combining (M : Onll_machine.Machine_sig.S) (S : Spec.S) :
  TXN_CAPABLE
    with type state = S.state
     and type update_op = S.update_op
     and type read_op = S.read_op
     and type value = S.value
