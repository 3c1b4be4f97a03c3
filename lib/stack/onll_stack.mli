(** The legal layer stacks, as a type, and one builder for all of them.

    Every durable object this repository builds is a stack of layers over
    one {e engine}: the paper's construction ([`Plain]), its wait-free
    trace variant ([`Wait_free]) or group commit ([`Batched], the
    construction under the combining persist policy,
    {!Onll_core.Onll.Make_combining}). Above the engine sits one {e front} — nothing,
    key-routed shards ({!Onll_sharded}) or the engine's own stale tier
    with a default staleness budget
    ({!Onll_core.Onll.CONSTRUCTION.update_stale}) — and above the front,
    optionally, per-client exactly-once sessions ({!Onll_session}). The cross-shard transaction
    coordinator ({!Onll_txn}) is a top of its own over plain shards.

    {b The layer contract.} Each layer, given a durably linearizable
    object below it, yields a durably linearizable object (buffered
    durably linearizable, for the relaxed front) and adds a fixed,
    stated fence cost: a session, sharding and the transaction fast path
    none (a session's submission is one update of the front beneath it,
    built over {!Onll_core.Client_table}), the relaxed front {e fewer}
    than one per update. That durable
    linearizability composes this way, layer by layer and across
    disjoint objects, is the argument of D'Osualdo, Raad and Vafeiadis,
    "The Path to Durable Linearizability" (PAPERS.md); it is why
    Theorem 5.1's bound — at most one persistent fence per update, none
    per read — holds for every value of {!t}, which
    [test/test_stacks.ml] checks over {!legal}.

    {b One builder.} {!Make.build} is the only way the benches and the
    test harnesses build a layered object: a transactional object is a
    [Txn] stack, reached through its [txn] field, and a relaxed one a
    [Direct (Relaxed _)] stack, reached through its [relaxed] field. So
    every audit that applies to a shape runs on every legal stack of
    that shape.

    {b What is not a stack.} A session over the transaction coordinator
    has no constructor, so asking for one is a type error rather than a
    run-time refusal: a session submits single operations, which the
    coordinator hands straight to its shards (a session over plain shards
    is that stack), and an exactly-once transaction needs [txn_detectable]
    and [txn_was_committed], which a session backend does not carry. *)

type engine = [ `Plain | `Wait_free | `Batched ]

(** The layer an object's updates enter. *)
type front =
  | Bare of engine
  | Sharded of engine * int
      (** that many key-routed instances of the engine *)
  | Relaxed of engine * int
      (** the engine, whose [update] is its stale tier under that default
          budget: fence-free acks, fewer than that many ever at risk *)

type top =
  | Direct of front  (** callers update the front itself *)
  | Session of front
      (** the front over the client table around the specification;
          every update is an exactly-once session submission *)
  | Txn of int  (** the transaction coordinator over that many plain shards *)

type t = {
  top : top;
  replicas : int;  (** copies of every log, drained under one fence *)
}

val plain : t
(** The paper's construction, bare and unmirrored. *)

val legal : t list
(** Every top over every front and engine, each once unmirrored and once
    mirrored: 4 shards, 4 transaction shards, a relaxed budget of 8. *)

val pp : Format.formatter -> t -> unit
(** One short line, e.g. ["session/relaxed(plain,k=64) x2"]. *)

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) : sig
  (** The relaxed front's two acknowledgement tiers and its drain, all
      the engine's own. A stale acknowledgement returns the operation's
      durable identity with its value, so a caller can ask
      [was_linearized] after a crash. *)
  type relaxed = {
    update_strict : S.update_op -> S.value;
        (** the engine's update: one fence, which also covers every
            unfenced acknowledgement below it *)
    update_stale : budget:int -> S.update_op -> Onll_core.Onll.op_id * S.value;
        (** {!Onll_core.Onll.CONSTRUCTION.update_stale} under [budget],
            which can only tighten the stack's [k] *)
    flush : unit -> unit;  (** make every acknowledgement durable now *)
    pending_ops : unit -> int;
        (** the acknowledged operations at risk now *)
  }

  (** The transaction coordinator's own surface ({!Onll_txn.Make}). *)
  type txn = {
    txn : S.update_op list -> S.value list;
        (** one atomic transaction, one fence however many shards *)
    txn_detectable : seq:int -> S.update_op list -> S.value list;
        (** under a caller-chosen transaction sequence number, at least
            two operations
            @raise Invalid_argument on reuse or fewer operations *)
    txn_was_committed : Onll_txn.txn_id -> bool;
    committed_txns : unit -> Onll_txn.txn_id list;  (** ascending *)
  }

  (** A built stack: everything its callers reach it through. *)
  type obj = {
    update : S.update_op -> S.value;
        (** the stack's update — on a session stack, a submission through
            the calling process's session
            @raise Failure if the session refuses it, or answers that an
            earlier in-doubt submission of the process had applied (this
            one then was not) *)
    update_detectable : seq:int -> S.update_op -> S.value;
        (** the front's detectable update, under a caller-chosen sequence
            number: a strict update, whose fence also covers every
            unfenced acknowledgement below it. On a session stack, the
            calling process's tracked update.
            @raise Invalid_argument if the sequence number is not above
            every one the process used *)
    read : S.read_op -> S.value;
    was_linearized : S.update_op -> Onll_core.Onll.op_id -> bool;
        (** identities are per shard, so the question carries the
            operation that routes it; unsharded stacks ignore it. On a
            session stack, a fence-free read of the process's table
            entry. *)
    shard_of : S.update_op -> int;  (** [0] unsharded *)
    recover_report : unit -> Onll_core.Onll.Recovery_report.t;
        (** hardened recovery; its [lost_acked] names every unfenced
            acknowledgement the crash voided *)
    recover_unhardened : unit -> unit;
        (** the calibration baseline recovery *)
    recovered_ops : unit -> (int * Onll_core.Onll.op_id * int) list;
        (** recovery's re-inserted operations as [(shard, id, index)],
            shard-major; identities and indices are per shard, so the
            shard is part of an operation's name ([0] unsharded) *)
    scrub : unit -> unit;  (** one cooperative scrub step *)
    degraded : unit -> bool;
    log_fill : unit -> float;  (** the fullest object log's fill, O(1) *)
    compact : unit -> unit;
        (** {!Onll_core.Onll.CONSTRUCTION.compact} of the calling
            process's logs (its checkpoint covers every acknowledged
            operation) *)
    relaxed : relaxed option;
        (** [Some] over a direct relaxed front. Under a session it is
            [None]: every update there is an exactly-once submission,
            acknowledged only once durable, and a staleness ack is not. *)
    txn : txn option;
        (** [Some] exactly on a [Txn _] stack, whose [update] is a
            one-operation transaction (the sharded fast path) *)
  }

  val build : t -> Onll_core.Onll.Config.t -> obj
  (** Create the stack's regions, bottom layer first, and return it.
      [cfg] supplies log capacity, region suffix and sink; the stack
      supplies [replicas]. *)

  val backend : obj -> (S.update_op, S.read_op, S.value) Onll_session.backend
  (** The object as a session backend: [b_update] is its durable update
      (the engine's own over the relaxed front), [b_pressure] is
      [log_fill], [b_compact] is [compact]. Over
      [Onll_core.Client_table.Make (S')] it is what
      [Onll_session.Make (S').attach] takes. *)
end
