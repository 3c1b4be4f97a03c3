(** Sharded ONLL (E14): a partitioned durable object built from [S]
    independent ONLL instances.

    Durable linearizability is {e local} (it composes over disjoint
    objects), so an object partitioned by key into [S] independently
    durably-linearizable ONLL shards is itself durably linearizable for
    any history in which every operation touches exactly one shard.
    {!Make} realises that composition: the spec's partitioning interface
    ({!Onll_core.Spec.S.shard_of_update} /
    {!Onll_core.Spec.S.shard_of_read}) routes each operation to one
    shard, and each shard is a full ONLL instance — its own execution
    trace, per-process persistent logs (region names suffixed [".s<i>"]
    via {!Onll_core.Onll.Config.t.region_suffix}, so mirroring composes),
    checkpoints and fence accounting. Because an update runs on exactly
    one shard, Theorem 5.1's cost bound is preserved verbatim: {e one}
    persistent fence per update, {e zero} per shard-routed read. Global
    reads ([shard_of_read = None]) fan out over every shard and merge
    with {!Onll_core.Spec.S.merge_read}; they are still fence-free but
    read [S] traces, so they are linearizable only per-shard — each
    shard's component is consistent, and for specs whose global reads are
    monotone aggregates (sizes of disjoint key sets) that is the same
    relaxation a fuzzy size on a concurrent map gives.

    Contention, not replay, is what sharding buys: [S] traces mean [S]
    independent CAS points and [S] independent persist pipelines, so
    disjoint-key workloads scale with shards instead of serialising on
    one trace head (E14 measures exactly this).

    Operation identities are {e per shard}: {!Make.was_linearized} takes
    the update (to route the query) alongside the id. Recovery recovers
    every shard and composes the per-shard reports; the sticky
    {!Make.degraded} flag is the OR over shards. *)

(** The sharded surface, over whichever single-shard construction
    {!Make} or {!Make_over} supplied. *)
module type SHARDED = sig
  (** The underlying single-shard construction — exposed so tests and
      harnesses can reach one shard's full {!Onll_core.Onll.CONSTRUCTION}
      surface (log stats, trace introspection, targeted corruption). *)
  module Shard : Onll_core.Onll.CONSTRUCTION

  type t
  (** A sharded durable object: an array of {!Shard.t} plus the router. *)

  val make : shards:int -> Onll_core.Onll.Config.t -> t
  (** [make ~shards cfg] builds [shards] independent ONLL instances, each
      configured as [cfg] but with [".s<i>"] appended to
      [cfg.region_suffix] — every persistent region name is
      shard-qualified, so the durable state of different shards can never
      collide and is self-describing on media. [cfg.log_capacity] is {e
      per shard, per process}. The shared [cfg.sink] receives every
      shard's events plus this layer's {!Onll_obs.Event.Route} events;
      fence attribution from all shards aggregates in the one registry,
      which is what E1 asserts against.
      @raise Invalid_argument if [shards < 1]. *)

  val create : ?shards:int -> ?log_capacity:int -> unit -> t
  (** [make] with {!Onll_core.Onll.Config.default} (4 shards). *)

  val shards : t -> int
  val sink : t -> Onll_obs.Sink.t

  val shard : t -> int -> Shard.t
  (** Direct access to shard [i], for tests and introspection. *)

  val shard_of_update : t -> Shard.update_op -> int
  (** The router: which shard [op] lands on. Pure — depends only on the
      operation and the shard count, so it answers identically across
      crashes and processes. *)

  val participants : t -> Shard.update_op list -> int list
  (** The distinct shards an operation list touches, ascending — the
      participant set a cross-shard transaction coordinator
      ({!Onll_txn}, E19) plans against. Pure, like {!shard_of_update}. *)

  (** {1 Operations} *)

  val update : t -> Shard.update_op -> Shard.value
  (** Route by {!Onll_core.Spec.S.shard_of_update} and run the update on
      that single shard: one persistent fence, exactly as unsharded. *)

  val update_with_id : t -> Shard.update_op -> Onll_core.Onll.op_id * Shard.value
  (** Like {!update}, also returning the identity — which is unique {e
      per shard} (the pair [(shard_of_update t op, id)] is globally
      unique). *)

  val update_detectable : t -> seq:int -> Shard.update_op -> Shard.value
  (** Client-chosen sequence number; freshness is enforced per shard, so
      per-process monotone seqs are valid whatever shard each lands on. *)

  val read : t -> Shard.read_op -> Shard.value
  (** Shard-routed reads ([shard_of_read = Some s]) run on shard [s];
      global reads ([None]) read every shard and merge with
      {!Onll_core.Spec.S.merge_read}. Either way: no fences, no NVM. *)

  (** {1 Crash recovery} *)

  val recover : t -> unit
  (** Strict recovery of every shard.
      @raise Onll_core.Onll.Recovery_corrupt on detected loss in any. *)

  val recover_report : t -> Onll_core.Onll.Recovery_report.t
  (** Hardened recovery of every shard, composed into one report:
      [recovered_ops], [decode_failures] and [base_idx] sum; [gap_indices],
      [dropped], [disagreements] and [salvage] concatenate in shard order
      (indices are per-shard execution indices). [detected_loss] on the
      composition is the OR of the per-shard answers. *)

  val recover_reports : t -> Onll_core.Onll.Recovery_report.t list
  (** The same recovery, reported per shard (in shard order). *)

  val recover_unhardened : t -> unit
  (** The deliberately broken calibration baseline, per shard (E12). *)

  val scrub : t -> Onll_plog.Plog.scrub_report
  (** One cooperative scrub step walks {e all} shards' logs; reports sum. *)

  val degraded : t -> bool
  (** OR of the shards' sticky degraded flags. *)

  val was_linearized : t -> Shard.update_op -> Onll_core.Onll.op_id -> bool
  (** Detectable execution, routed: asks [op]'s shard whether [id] took
      effect there. Identities are per-shard, so the operation (or at
      least its routing key) is part of the question. *)

  val recovered_ops : t -> (int * Onll_core.Onll.op_id * int) list
  (** Recovery's re-inserted operations as [(shard, id, exec_idx)],
      shard-major, oldest first within a shard. *)

  (** {1 Reclamation and introspection} *)

  val compact : t -> int
  (** {!Onll_core.Onll.CONSTRUCTION.compact} on every shard: checkpoint,
      prune the shard's trace below the summarised index and reclaim the
      calling process's log, bounding both durable log space and the
      replay distance of subsequent view-less computes. The per-shard
      trace a compute replays is [1/S] of the whole history between
      compactions — the locality benefit E14 measures alongside
      contention. Returns the sum of the summarised execution indices. *)

  val snapshot : t -> Onll_core.Onll.Snapshot.t
  (** Composed snapshot: [logs] concatenate in shard order,
      [latest_available_idx] sums, [max_fuzzy_window] is the max over
      shards (each shard's window obeys Prop. 5.2 independently) and
      [degraded] is the OR. *)

  val log_fill : t -> float
  (** The fullest shard log's fill: the maximum of
      {!Onll_core.Onll.CONSTRUCTION.log_fill} over shards, with no
      durable load. *)
end

module Make_over
    (M : Onll_machine.Machine_sig.S)
    (S : Onll_core.Spec.S)
    (C : Onll_core.Onll.CONSTRUCTION
           with type state = S.state
            and type update_op = S.update_op
            and type read_op = S.read_op
            and type value = S.value) : SHARDED with module Shard = C
(** Shard any construction that speaks the standard surface — in
    particular [Make_over (M) (S) (Onll_core.Onll.Make_combining (M) (S))]
    is the sharded group-commit object (E16 composes it this way): each
    shard combines its own concurrent updates, so disjoint-key traffic
    scales with shards {e and} amortises fences within each shard. *)

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) :
  SHARDED
    with type Shard.state = S.state
     and type Shard.update_op = S.update_op
     and type Shard.read_op = S.read_op
     and type Shard.value = S.value
(** {!Make_over} applied to the paper's construction
    ({!Onll_core.Onll.Make}). *)
