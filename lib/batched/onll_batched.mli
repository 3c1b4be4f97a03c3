(** Group-commit ONLL (E16): fence batching behind the standard
    construction surface.

    Theorem 5.1 charges every update one persistent fence — {e per
    process}. §8's closing discussion (and the flat-combining literature
    it cites) observes that {e concurrent} updates need not each pay
    their own: one process can order many processes' updates into a
    single batch, append the batch to the log and make the whole batch
    durable under a {e single} persistent fence, amortising the fence
    across every update it covers.

    {!Make} is that construction, hardened to the same standard as the
    core one:

    - {b Announce}: each process publishes its operation (with its
      detectable [(process, sequence)] identity) in a per-process slot.
    - {b Combine}: whoever wins a CAS lock becomes the {e leader},
      collects every announced operation into one batch with contiguous
      execution indices, appends one [Ops] record (the core
      construction's format, {!Onll_core.Record_log}, newest first) to
      the {e shared} persistent log and issues the batch's one fence.
    - {b Publish}: only after the fence does the leader advance the
      durable watermark, apply the batch to the in-memory state and
      publish each waiter's result. A waiter therefore {e never} returns
      before its operation is durable — durable linearizability is
      preserved, and a crash between append and fence loses the whole
      tail batch cleanly (the record's CRC frame makes a torn batch
      all-or-nothing; no operation in it was ever acknowledged).

    Detectability is identical to the unbatched construction:
    {!Make.update_detectable} rejects sequence reuse before any effect,
    and {!Make.was_linearized} answers across crashes from the recovered
    batches plus the per-process sequence floors carried by checkpoints.

    Costs: with [k] concurrent submitters a batch of size [k] costs one
    fence, so the amortised price is [1/k] pf/update — {e but} the
    Theorem 6.3 worst case is still tight: a solo process (or any
    schedule that forces every update to lead its own batch of one)
    degenerates to exactly 1 pf/update, and the construction is
    lock-based, not lock-free — a stalled leader stalls the world. E16
    measures both sides; ["fences.batched"] counts batch fences and
    ["batch.occupancy"] histograms how many updates each fence covered.

    Composition: the shared log honours
    {!Onll_core.Onll.Config.t.replicas} (batched∘mirrored: all replica
    appends drain under the batch's one fence) and
    {!Onll_core.Onll.Config.t.region_suffix} (so shard layers can
    qualify it), and the module satisfies the full
    {!Onll_core.Onll.CONSTRUCTION} signature — sessions (through
    {!Onll_stack.Make.backend}) and shards ({!Onll_sharded.Make_over})
    stack on top unchanged.

    Recovery, snapshots and [was_linearized] go through the core
    construction's record log ({!Onll_core.Record_log.Make}): the same
    routine, adoption rule ({!Onll_core.Onll.Adoption.run}) and
    detectability rule. *)

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) : sig
  include
    Onll_core.Onll.CONSTRUCTION
      with type state = S.state
       and type update_op = S.update_op
       and type read_op = S.read_op
       and type value = S.value

  val batch_stats : t -> int * int
  (** (batches appended, updates covered) since construction or last
      recovery — [fst] is the number of persistent fences the update
      path has paid, [snd / fst] the mean occupancy. *)

  val durable_watermark : t -> int
  (** The published watermark: highest execution index whose batch fence
      has completed (0 before any batch). Reads and waiter returns only
      ever observe state at or below it. *)
end
