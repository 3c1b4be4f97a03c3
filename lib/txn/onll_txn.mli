(** Cross-shard atomic transactions over sharded ONLL (E19): one
    coordinator fence per transaction instead of 2PC's participants + 1.

    {!Onll_sharded} (E14) routes every update to exactly one shard, so a
    multi-key operation — a kv multi-put, a ledger transfer between
    accounts on different shards — was impossible. Classic two-phase
    commit would make it possible at a fence {e per participant} (each
    prepare force-write) plus a decision fence. ONLL's order-now /
    linearize-later split does better: the whole transaction becomes
    {e one} CRC-framed commit record, appended and fenced {e once} in a
    dedicated per-process coordinator log region, and the per-shard
    sub-operations are applied deterministically around it.

    A transaction [txn t [op1; op2; ...]] runs the update stages across
    its participant shards:

    + {b stage} (order): each sub-operation is inserted into its shard's
      execution trace — {e not yet available}, nothing written durably —
      tagged with the transaction's encoded commit payload. The tag is
      what makes concurrent helping safe: if another process's update
      persists a staged sub-operation (Listing 3's fuzzy window), the
      payload rides along in that fenced record, so the {e whole}
      transaction becomes durably committed the instant any part of it
      does. A staged sub-operation can never be durable without its
      transaction.
    + {b commit}: the commit record — transaction id, every
      sub-operation with its identity and staged execution index — is
      appended to the coordinator's own log region and fenced. {e This
      is the transaction's single persistent fence and its durability
      point.}
    + {b finish} (linearize): each staged node is set available and its
      return value computed from the trace prefix. No further fences.

    Recovery composes: coordinator logs are salvaged and
    decoded first (the {e sweep} precedes any new submission); each shard
    then recovers with the committed transactions as an oracle, so a
    sub-operation whose only durable copy is the commit record is
    re-adopted in place; the payloads found riding in shard logs add the
    helper-committed transactions; finally any committed sub-operation
    still missing is re-applied {e exactly once}, keyed by its per-shard
    identity, and durably re-logged. A crash at any point therefore
    leaves no partial transaction visible: either the commit record (or a
    helper's record) survived — recovery replays the transaction in
    full — or neither did and no sub-operation was ever durable.

    Reads are the sharded layer's: shard-routed reads are linearizable
    per shard, global reads are fence-free merge reads. Cross-shard
    atomicity here is {e crash} atomicity (all-or-nothing durability +
    deterministic replay), not snapshot isolation: a concurrent reader
    may observe one shard's sub-operation before a sibling shard's — the
    same per-shard relaxation {!Onll_sharded} merge reads already have. *)

(** A transaction's identity: the coordinating process and a per-process
    transaction sequence number (chosen by the client with
    {!Make.txn_detectable}, or allocated automatically). Distinct from —
    and carried alongside — the per-shard {!Onll_core.Onll.op_id} each
    sub-operation bears. *)
type txn_id = { txn_proc : int; txn_seq : int }

val pp_txn_id : Format.formatter -> txn_id -> unit

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) : sig
  module Sh :
    Onll_sharded.SHARDED
      with type Shard.state = S.state
       and type Shard.update_op = S.update_op
       and type Shard.read_op = S.read_op
       and type Shard.value = S.value
  (** The underlying sharded object — exposed so tests and harnesses can
      reach shards and their logs directly. *)

  type t
  (** A transactional sharded object: an {!Sh.t} plus one coordinator log
      per process and the volatile committed-transaction table. *)

  val make : shards:int -> Onll_core.Onll.Config.t -> t
  (** [make ~shards cfg] builds the sharded object exactly as
      {!Onll_sharded.SHARDED.make}, plus one coordinator log per process
      (regions ["<spec><suffix>.<n>.txncoord.<p>"], [cfg.log_capacity]
      bytes, mirrored over [cfg.replicas] like every other region — so
      [--mirrored] composes). *)

  val create :
    ?shards:int -> ?log_capacity:int -> ?replicas:int -> unit -> t
  (** [make] with {!Onll_core.Onll.Config.default} (4 shards). *)

  val sharded : t -> Sh.t
  (** The underlying sharded object (shared state — single updates
      through it are visible to transactions and vice versa). *)

  val participants : t -> S.update_op list -> int list
  (** The distinct shards this operation list touches, ascending. *)

  (** {1 Operations} *)

  val txn : t -> S.update_op list -> S.value list
  (** Submit the operation list as one atomic transaction; returns the
      sub-operation values in program order. Exactly {b one} persistent
      fence — the coordinator commit append — whatever the participant
      count. A {e single-operation} transaction degenerates to a plain
      sharded update: no staging, no coordinator record, the same one
      fence (counted under ["ops.update"], with ["txn.fast_path"]
      bumped); an empty list returns [[]] at no cost. Multi-operation
      transactions are counted under ["ops.txn"]/["fences.txn"]
      ({!Onll_obs.Opstats.txn_done}) and emit {!Onll_obs.Event.Txn}.
      @raise Onll_core.Onll.Log_full if the coordinator log cannot fit
      the commit record even after {!compact}. *)

  val txn_detectable : t -> seq:int -> S.update_op list -> S.value list
  (** Like {!txn} with a client-chosen transaction sequence number, so
      the client can ask {!txn_was_committed} about this exact submission
      after a crash even though the call never returned. Requires at
      least two operations (a single-operation submission has no
      coordinator record to detect — use the sharded
      [update_detectable]); sequence reuse is rejected before any
      effect, as in {!Onll_core.Onll.CONSTRUCTION.update_detectable}.
      @raise Invalid_argument on reuse or fewer than two operations. *)

  val update : t -> S.update_op -> S.value
  (** A plain single-shard update through the sharded router; one fence. *)

  val read : t -> S.read_op -> S.value
  (** The sharded read path: shard-routed or merge, fence-free. *)

  (** {1 Detectable commitment} *)

  val txn_was_committed : t -> txn_id -> bool
  (** After recovery: did this transaction commit before the crash? True
      iff its commit record (or a helper-carried payload) survived — in
      which case {e every} sub-operation is guaranteed applied. Answered
      from the volatile committed table recovery rebuilds; for ids
      submitted in the current era it answers from the live table. *)

  val committed_txns : t -> txn_id list
  (** Every transaction the committed table knows, ascending. Entries for
      fully checkpoint-covered transactions disappear once coordinator
      truncation ({!compact}) drops their records and a recovery rebuilds
      the table. *)

  (** {1 Crash recovery} *)

  val recover_report : t -> Onll_core.Onll.Recovery_report.t
  (** Hardened composed recovery, as the header describes: commit
      records (C1) as the shards' oracle, helper-carried payloads (C2)
      added, the committed table and transaction sequence allocation
      rebuilt, then the sweep (one fenced re-apply run per affected
      shard). The report composes the per-shard reports as
      {!Onll_sharded.SHARDED.recover_report} does, prepends the
      coordinator logs' salvage entries, counts undecodable commit
      records as [decode_failures] and swept re-applies in
      [recovered_ops]. Idempotent: a second run (or a crash-interrupted
      run re-run) adopts the same history and injects nothing new. *)

  val recover_unhardened : t -> unit
  (** The deliberately broken calibration baseline: unhardened per-shard
      and coordinator-log recovery, {b no} oracle, {b no} sweep — so
      committed-but-unapplied transactions silently vanish. The E19 chaos
      campaign must catch it; never use it otherwise. *)

  val scrub : t -> Onll_plog.Plog.scrub_report
  (** One cooperative scrub step over every shard log {e and} every
      coordinator log; reports sum. *)

  val degraded : t -> bool
  (** OR of the shards' sticky degraded flags and the coordinator logs'
      (quarantined commit-record spans). *)

  val was_linearized : t -> S.update_op -> Onll_core.Onll.op_id -> bool
  (** Per-shard detectability, routed — for sub-operation ids (from
      {!recovered_ops}) and plain updates alike. *)

  val recovered_ops : t -> (int * Onll_core.Onll.op_id * int) list
  (** Recovery's re-inserted operations as [(shard, id, exec_idx)] —
      including swept transaction sub-operations. *)

  (** {1 Reclamation and introspection} *)

  val compact : t -> unit
  (** Compact every shard, then advance each coordinator
      log's head past the prefix of commit records whose every
      sub-operation is covered by a shard checkpoint — the transactional
      analogue of {!Onll_sharded.SHARDED.compact}, bounding coordinator
      space by the live (un-checkpointed) transaction window. *)

  val coordinator_entries : t -> int
  (** Total commit records currently live across the coordinator logs
      (the fast-path regression test pins this at zero). *)
end
