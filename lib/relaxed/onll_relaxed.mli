(** Bounded-staleness relaxed mode (E20): risk-budgeted lazy fences.

    Theorem 5.1 prices strict durable linearizability at one persistent
    fence per update. This wrapper relaxes the contract to {e buffered}
    durable linearizability ("The Path to Durable Linearizability"): an
    update is acknowledged {b fence-free} into a volatile tail bounded by
    a {b risk budget} — at most [max_unfenced_ops] acked operations may
    be unfenced at any moment. A single lazy fence drains the whole tail
    when the budget fills, when a strict update piggybacks on it, or on
    an explicit {!Make_over.flush}: one window of operations under one
    fence, which is what Listing 3's [Ops] record already is, so a drain
    is one such record in the draining process's own engine log, at the
    operations' execution indices, and recovery adopts it like any
    other. Steady-state cost is therefore [1/k] fences per update
    instead of 1. An idle object holds its tail until the next update,
    {!Make_over.flush} or {!Make_over.checkpoint}: there is no clock and
    no background drain.

    What a crash may cost is exactly the budget: the unfenced {e suffix}
    of the linearization, never more, never an interior operation.
    Recovery names each lost acknowledgement in
    {!Onll_core.Onll.Recovery_report.t.lost_acked} — budgeted loss is
    admitted and precisely accounted, not silent — and then converges to
    an ordinary durably linearizable state.

    Why the tail is one {e global} suffix (not per-process): acked
    operations are available immediately, so later fenced operations'
    fuzzy windows do not cover them. If process A could drain its own
    ops while a lower-index op of B stayed unfenced, a crash would lose
    an {e interior} operation — the post-crash state would not be a
    prefix of the pre-crash linearization, which is exactly what
    buffered durable linearizability (and the E20 checker,
    {!Histcheck.Make.check_buffered}) forbids. Every drain therefore
    covers the whole tail, and every fenced ack piggybacks on its
    deferred predecessors.

    The wrapper is the relaxed front of {!Onll_stack}: callers build it
    as [Onll_stack.Make (M) (S)] over [Direct (Relaxed (engine, k))],
    which attaches it to the engine it creates. {!Make_over} stays public
    for tests that reach the engine beneath it.

    Observability: the wrapper registers [fences.deferred] (acks that
    paid no fence), [fences.drains] and [risk.peak] (deepest tail ever =
    worst-case ops at risk) in the sink's registry. *)

module Report = Onll_core.Onll.Recovery_report

(** Wrap an existing {!Onll_core.Onll.TXN_CAPABLE} object instance. The
    wrapper must mediate {e every} update on the object from then on
    (reads may keep going direct): an update bypassing it would fence a
    fuzzy window that skips the acked-available tail and break the
    prefix argument above. *)
module Make_over
    (M : Onll_machine.Machine_sig.S)
    (S : Onll_core.Spec.S)
    (C :
      Onll_core.Onll.TXN_CAPABLE
        with type state = S.state
         and type update_op = S.update_op
         and type read_op = S.read_op
         and type value = S.value) : sig
  type t

  val attach : ?max_unfenced_ops:int -> Onll_core.Onll.Config.t -> C.t -> t
  (** [attach cfg obj] wraps [obj]. [max_unfenced_ops] (default 8, must
      be >= 1) is the risk budget k. [cfg] supplies the sink whose
      registry takes the wrapper's counters. *)

  val update :
    ?budget:int -> t -> S.update_op -> Onll_core.Onll.op_id * S.value
  (** Relaxed ack: order + linearize, no fence unless the tail reaches
      the effective budget (the minimum budget any pending op was acked
      under — [?budget] lets a caller, e.g. a staleness-k session tier,
      demand a tighter bound than the object default; it can only
      tighten, never widen). Returns the operation's durable identity so
      the caller can ask {!was_linearized} after a crash. *)

  val update_strict : t -> S.update_op -> Onll_core.Onll.op_id * S.value
  (** Classic durable-linearizability ack: exactly one fence (the
      Theorem 5.1 cost), which also drains every deferred predecessor —
      the piggybacked lazy fence. *)

  val update_detectable : t -> seq:int -> S.update_op -> S.value
  (** {!update_strict} under the caller's sequence number, so the caller
      can ask {!was_linearized} about this exact operation after a crash
      ({!Onll_core.Onll.CONSTRUCTION.update_detectable}). It drains the
      tail under the same lock that orders it, so no other process's
      fence-free ack can land below it unfenced.
      @raise Invalid_argument if the sequence number is not above every
      one the process used *)

  val read : t -> S.read_op -> S.value
  (** Zero fences. Sees the acked-volatile frontier: that is the relaxed
      contract (pre-crash reads may observe operations a crash would
      lose; post-recovery reads never do). *)

  val flush : t -> unit
  (** Drain the tail now (one fence if it was non-empty, attributed to
      the checkpoint class, not to per-update accounting). After [flush]
      returns, every previously acked operation is durable. *)

  val pending_ops : t -> int
  (** Current tail depth = acked operations at risk right now. *)

  val risk_peak : t -> int
  (** Deepest tail ever observed; never exceeds the effective budget. *)

  val checkpoint : t -> int
  (** The wrapper's one compaction: compact the inner object (its
      checkpoint covers the tail, since acked operations are available)
      and clear the tail. Returns the summarised index. *)

  val recover_report : t -> Report.t
  (** Hardened recovery: the inner object's own
      ({!Onll_core.Onll.CONSTRUCTION.recover_report}), which adopts every
      drain record, then the acknowledgement ledger settled: every
      operation acked since the last recovery is either linearized in
      the rebuilt state or listed in [lost_acked], which is always the
      unfenced suffix at the crash, at most the budget deep (minus
      operations an incidental checkpoint made durable). *)

  val recover_unhardened : t -> unit
  (** Calibration baseline: the inner object's unhardened recovery, with
      the ledger ignored. Silently loses the unfenced tail and reports no
      [lost_acked] — the behaviour the E20 chaos campaign and the
      buffered checker must catch. *)

  val was_linearized : t -> Onll_core.Onll.op_id -> bool
  val snapshot : t -> Onll_core.Onll.Snapshot.t

  val inner : t -> C.t
  (** The wrapped object — for reads and introspection only; updating it
      directly voids the prefix guarantee. *)
end
