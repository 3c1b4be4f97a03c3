(** Single-persistent-fence append-only log (after Cohen et al., OOPSLA'17).

    The log ONLL builds on (paper §4.1.1): each {!Make.append} makes its
    payload durable with exactly {e one} persistent fence. The trick is that
    an entry carries a CRC over its length and payload, so no write ordering
    between "data" and "commit record" is needed: an entry is committed iff
    its checksum validates, and recovery simply scans the log and stops at
    the first entry that does not. Only the last entry can be torn (appends
    are fenced before the append call returns), so the valid prefix is
    exactly the set of fenced appends plus possibly a lucky unfenced one —
    either is a legal durable state.

    The log also supports compaction (paper §8): {!Make.set_head} and
    {!Make.drop_upto} durably advance a head pointer past entries made
    redundant by a checkpoint, using a two-slot versioned header so that a
    crash during the head update preserves one valid header. Both work from
    an in-memory account of the live entries (offset and caller-defined key
    per entry), so compaction reads nothing back while the account is
    valid.

    {b Media-fault hardening.} Under the fault model of [Onll_faults],
    durable bytes can rot {e anywhere}, not just at the tail. {!Make.recover}
    therefore runs a {e salvage scan}: where the valid prefix stops, it
    searches forward for a resync point (the next CRC-valid entry). If one
    exists, the bytes in between are interior corruption — they are
    quarantined behind a durable, CRC-protected {e skip marker} and the
    entries beyond survive; the loss is reported precisely. If none exists,
    the garbage is a torn tail — it is zeroed and the log truncated, which
    loses nothing a completed append ever acknowledged. All repairs are
    idempotent (rewriting a marker is byte-identical; re-zeroing zeros is a
    no-op), so recovery interrupted by a nested crash at any point converges.
    Transiently failing flushes/fences ({!Onll_nvm.Memory.Transient_fault})
    are retried with a bounded budget, emitting [Retry] events.

    {b Durable redundancy (mirroring).} {!Make.create} takes [replicas]
    (default 1): with [replicas = R], every append, head update and repair
    is written identically to [R] independent NVM regions, and {e all}
    replica flushes drain under a {e single} persistent fence (pending
    write-backs are per process, not per region), so the one-fence append
    economy is unchanged. Recovery then becomes {e repair-aware}: where one
    replica's CRC scan stops, the other replicas are consulted at the same
    offset, and an intact copy is restored in place (durably, idempotently)
    and counted as [repaired] — not lost. Only a span corrupt in {e every}
    replica is quarantined, and a tail with no valid copy anywhere is
    truncated as torn. This disambiguates the single-copy tail ambiguity:
    an ordinary torn append tears {e all} replica tails (no copy was ever
    fenced), while a media fault hits one — which the mirror heals.
    {!Make.scrub} is the online half of the same mechanism: a cooperative
    CRC-walk over the live entries (callable between operations like any
    process step) that heals cross-replica divergence {e before} a crash
    forces recovery to, and quarantines double-fault spans it cannot.

    {b The written bound.} Each header slot also records a {e written
    bound}: every byte an acknowledged append, a relocation or a salvage
    wrote lies below the durable bound. Above it there can only be the
    bytes of an append that was never acknowledged, or media rot; neither
    holds a record recovery must find, and a later append overwrites them.
    A header write stores the log end or, if lower, 64 KiB past the
    furthest byte the log has written since its last recovery. That extent
    falls only once a relocation's zeroing of the old span is durable,
    never in the relocation's switch header, or at a restart (below),
    whose switch header bounds only its own record. An append that would pass
    the bound stores the next header slot (next seq, same head, raised
    bound) beside its record and flushes both ranges in every replica
    under its one fence, so the fence count per append is unchanged and
    an append that does not pass the bound writes nothing extra. A log
    writes its first header at its first head update; until then, and
    for a store whose slots were written before slots carried a bound,
    the bound is the log end, and recovery checks the whole free
    remainder as it always did. So a log that never advances its head
    gains nothing from the bound; writing its first slot at its first
    append was tried and left out (DESIGN.md says why).

    {b Restarting at the front.} Appends never wrap, and a head update
    leaves the bytes below the head dead. A {!Make.checkpoint} that drops
    every live record, and whose record plus one 64 KiB reserve fits in
    that dead prefix, therefore restarts the log at the front of its
    entries area, in the two fences an appended checkpoint and its head
    update take. F1 stores the record at the front and zeroes the rest of
    the dead prefix, then fences; the header still names the old live
    span, which nothing has touched. F2 switches the header to the front,
    its bound the record's end plus the reserve, then fences. The old live
    span, now past the tail, is zeroed with flushed stores that the log's
    next fence drains, normally an append's at no extra cost. A header
    write due before that fence (a first append larger than the reserve)
    drains them first, one fence more, because it overwrites the slot
    that still names the old head. Recovery reads that slot: a valid slot
    whose head lies above the newest header's means a restart's (or a
    relocation's) zeroing may not have landed, and recovery zeroes the
    span up to that slot's bound again, durably, before anything appends.
    So the bytes from the tail to the bound stay durably zero across a
    crash at any step, under any subset of flushed lines persisting, and
    a checkpointed log reuses its front instead of growing. Zeroing
    stores one shared 64 KiB block of zeros again and again, so it
    allocates nothing in proportion to the span.

    A crash can leave bytes of an unacknowledged append above the bound
    when that append was raising the bound and its slot did not survive
    (each cache line survives a crash on its own). Recovery does not look
    there, so they stay; if a later append's raised bound covers them
    before anything overwrites them, the next recovery finds them past
    the valid prefix and reports them as a torn tail. That loses nothing
    and quarantines nothing: it is the same report the unacknowledged
    append would have earned had recovery checked the whole remainder,
    made one recovery later.

    Layout (byte offsets within each replica region; replicas are
    byte-identical when healthy):
    {v
    0   header slot A: seq:int64  head:int64  bound:int64
                       crc32(seq‖head‖bound):int64
    32  header slot B: same
    64  entries: [len:int64  crc32(len‖payload):int64  payload] ...
        skip marker: [-span:int64  crc32(-span‖magic):int64]  (16 bytes)
    v}
    A slot that fails its checksum but holds [crc32(seq‖head)] where the
    bound is was written before slots carried a bound; it reads as a
    header whose bound is the log end. *)

exception Full
(** Raised by [append] when a log's entries area is exhausted. The
    exception is shared by every [Make] instantiation. *)

val entry_crc : string -> int32
(** The checksum an entry stores for [payload]: the CRC-32 of the
    payload's length as a little-endian int64 followed by the payload,
    computed without building that frame. *)

val last_nonzero : string -> int
(** The index of the last nonzero byte of a string, or [-1] if every byte
    is zero. Recovery's clean-end check runs it over each 64 KiB chunk of
    a replica's span up to the written bound (see {!Make.recover}). *)

val replica_region_name : string -> int -> string
(** [replica_region_name name r] is the NVM region name of replica [r] of a
    log created as [name]: [name] itself for [r = 0] (the primary),
    ["name~r"] for mirrors. *)

val is_mirror_region : string -> bool
(** Does this region name denote a mirror replica (contains ['~'])? Fault
    plans use this to target one side of a mirrored log —
    e.g. [target = (fun n -> not (is_mirror_region n))] corrupts primaries
    only. *)

type salvage_report = {
  torn_tail_bytes : int;
      (** garbage bytes zeroed and truncated at the tail (no valid entry —
          in any replica — followed them); torn unacknowledged appends land
          here, so a nonzero value after a clean crash is normal and not
          data loss *)
  quarantined_spans : int;
      (** interior spans corrupt in {e every} replica, newly quarantined
          behind skip markers this recovery — each one is durable data
          loss *)
  quarantined_bytes : int;  (** total bytes in those spans *)
  skip_markers : int;
      (** skip markers present in the log after recovery, including ones
          left by earlier recoveries *)
  repaired_entries : int;
      (** entries restored from an intact replica this recovery — damage
          healed, {e not} loss *)
  repaired_bytes : int;  (** durable bytes rewritten by those repairs *)
}

val clean_report : salvage_report
(** All zeros — what a recovery of an uncorrupted log reports. *)

val report_lost : salvage_report -> int
(** Durable bytes discarded by this recovery (torn + quarantined);
    repaired bytes are {e not} lost. *)

val pp_salvage_report : Format.formatter -> salvage_report -> unit

type scrub_report = {
  scrubbed_entries : int;  (** live entries CRC-walked *)
  scrub_repaired_entries : int;
      (** diverged entries healed from an intact replica *)
  scrub_repaired_bytes : int;
  unrepairable_spans : int;
      (** spans corrupt in every replica — quarantined and counted; the
          data is gone and the log is degraded *)
}

val clean_scrub : scrub_report
val add_scrub : scrub_report -> scrub_report -> scrub_report
(** Component-wise sum, for aggregating per-log scrubs. *)

val pp_scrub_report : Format.formatter -> scrub_report -> unit

module Make (M : Onll_machine.Machine_sig.S) : sig
  type t

  val create :
    ?sink:Onll_obs.Sink.t ->
    ?replicas:int ->
    ?key:(string -> int) ->
    name:string ->
    capacity:int ->
    unit ->
    t
  (** A fresh log over [replicas] (default 1) independent persistent
      regions of [capacity] bytes each (entries area; header overhead is
      added on top), named {!replica_region_name}[ name r]. [sink] (default
      {!Onll_obs.Sink.null}) receives a [Log_append] event per append, a
      [Log_compact] event per head advance, a [Retry] event per transient
      fault retried, a [Salvage] event per span recovery quarantines or
      tail it truncates (emitted before the bytes are discarded), a [Repair]
      event when recovery heals replica divergence and a [Scrub] event per
      {!scrub} pass.

      [key] (default: [0] for every record) maps a payload to the int key
      {!drop_upto} compares. The log keeps each live entry's key in memory
      beside its offset, computed once when the entry is appended (or when
      the in-memory account is rebuilt, by {!recover}'s walk or by a scan
      after {!scrub}), so dropping by key reads nothing back.
      [key] must be total: a payload it cannot interpret should map to
      [max_int], which no drop passes.
      @raise Invalid_argument if [replicas < 1]. *)

  val replicas : t -> int

  val region_names : t -> string list
  (** The replica region names, primary first. *)

  val append : ?key:int -> t -> string -> unit
  (** Append a payload and make it durable in every replica: store to all
      replicas, flush all, one fence — exactly one persistent fence
      regardless of the replica count (transient fault retries excepted).
      [key] is the payload's key (see [create]) when the caller already
      knows it, which spares decoding the payload again; it must be what
      [create]'s [key] maps the payload to.
      An append that would pass the written bound also stores the next
      header slot, raising the bound, and drains it under the same fence.
      @raise Full if the entries area is exhausted (compact or resize). *)

  val entries : t -> string list
  (** The durable valid entries from the current head, oldest first, read
      back from (simulated) NVM, stepping over skip markers. This is the
      recovery read path (compaction does not use it: see {!drop_upto}); it
      performs no fences. *)

  val recover : t -> salvage_report * string list
  (** Reset the in-memory cursors from the durable contents — call after a
      crash before appending again. Runs the salvage scan described in the
      module doc, consulting every replica at each stop: an entry with an
      intact copy anywhere is durably restored in place ([repaired]), a
      span corrupt everywhere is quarantined ([skip markers]), a tail with
      no valid copy anywhere is zeroed and truncated; replica headers are
      re-converged. Returns the report, which says exactly what was
      repaired and what was lost, and the live payloads oldest first —
      what {!entries} would read back, so a caller need not rescan. A
      recovery that itself crashes mid-repair converges when re-run: every
      repair is idempotent.

      Cost: O(written bytes), whatever the capacity. One walk reads each
      live record once per replica — two 8-byte loads for its header, one
      load of its payload, one CRC — heals the other replicas from those
      bytes (comparing them only when there are several) and rebuilds the
      live-entry account as it goes, so the first {!drop_upto},
      {!set_head} or {!entry_count} after it reads nothing. The walk runs
      to the log end, so an unacknowledged append that landed whole is
      found past the bound; the bound is then raised over it (one fence).
      Then a clean-end check of the span from the end of the valid prefix
      up to the newest header's written bound: each replica's span is
      zero-checked backward in loads of at most 64 KiB, a word at a time,
      and only when a nonzero byte turns up are its bytes up to that byte
      loaded for the resync search (the damaged case), which the bound
      limits too. The check stays because a zeroed length field under a
      media fault ends the valid prefix early and can hide intact records
      behind it; none lies past the bound. A healthy log with a header
      pays the check for at most one 64 KiB chunk past its last append.
      A log without one pays it for its whole free remainder. The header
      is read once per replica, and those reads also decide which
      replicas' headers to heal. *)

  val recover_walk : t -> entry:(string -> int) -> salvage_report
  (** {!recover}'s walk, which {!recover_decoded} runs too: [entry] is
      given each live payload in log order, as the walk finds it, and
      returns its key (what [create]'s [key] maps it to) for the live-entry
      account. Apart from [entry]'s own allocation, an entry costs the walk
      its payload copy and the two header words the machine returns boxed:
      the live-entry account keeps its storage across walks, and a
      record's checksum is taken and compared unboxed. *)

  val recover_unhardened : t -> unit
  (** The pre-hardening recovery: truncate the primary at the first invalid
      entry — silently dropping every entry after an interior corruption,
      consulting no mirror, with no repair and no report. Calibration
      baseline for the chaos campaigns (E12/E13); never use it otherwise. *)

  val scrub : t -> scrub_report
  (** Online self-healing: CRC-walk the live entries (head to tail) across
      all replicas {e while the log is in use}, durably repairing any
      replica divergence from an intact copy and quarantining spans corrupt
      in every replica. Also re-converges diverged replica headers. Safe to
      call between operations from any process (it is a cooperative step:
      every access is an ordinary machine operation); costs persistent
      fences only for actual repairs. Idempotent: a second scrub of an
      unchanged log reports all-clean. *)

  val set_head : t -> int -> unit
  (** [set_head t n] durably discards the oldest [n] valid entries (one
      persistent fence for the header update, covering every replica).
      @raise Invalid_argument if fewer than [n] entries exist. *)

  val drop_upto : t -> int -> int
  (** [drop_upto t k] durably discards the leading live entries whose key
      (see [create]'s [key]) is [<= k], stopping at the first one whose key
      is greater, and returns how many it discarded. It reads the keys from
      the in-memory account, so while the account is valid it performs no
      durable load; after {!scrub} (or a {!relocate} that quarantined a
      span) it first rebuilds the account with one scan. Costs
      the one header fence of {!set_head} when it discards anything, and
      nothing otherwise. *)

  val excise : t -> from:(string -> bool) -> unit
  (** [excise t ~from] durably hides the live entries from the first whose
      payload satisfies [from] up to the newest entry, which stays: one
      skip marker over them, in every replica under one fence, so no scan
      or {!recover} returns them again. A caller appends the record that
      must outlive them first, so a crash at any point leaves that record
      durable; a marker torn by the crash is quarantined by the next
      {!recover}. Reads the live entries back once; no fence when no entry
      but the newest satisfies [from]. *)

  val entry_count : t -> int
  (** Number of valid entries from the head, read from the live-entry
      account: O(1) while the account is valid (after an append, a
      {!recover} or a {!relocate} that quarantined nothing); after a
      {!scrub} the first call rebuilds it with one scan. *)

  val used_bytes : t -> int
  (** Bytes of the entries area in use, including dead pre-head bytes
      ([capacity] minus this is the space left for appends). *)

  val live_bytes : t -> int
  (** Bytes occupied by live (post-head) entries. *)

  val free_bytes : t -> int
  (** Bytes left for appends before {!Full}. *)

  val relocate : t -> unit
  (** Physically move the live span (head to tail) to the front of the
      entries area in every replica, reclaiming the dead pre-head bytes for
      appends — {!set_head} alone only advances a pointer, and appends
      never wrap, so only this or a restarting {!checkpoint} frees append
      space. Durable and crash-atomic (copy below the old head
      first, then switch the two-slot header, then zero the stale span).
      The copy is repair-aware: each record is sourced from whichever
      replica's copy revalidates on load, so a record rotted on the
      primary is restored from its mirror rather than propagated (and the
      mirrors' intact copy is never zeroed away); a span corrupt in every
      replica is quarantined behind a skip marker at the destination and
      reported with a [Salvage] event, exactly as {!scrub} would in place.
      No-op when there is nothing to reclaim or the live span would overlap
      its destination; call after a checkpoint has shrunk the live set. *)

  (** {2 Checkpoints and the headroom rule}

      A checkpoint record summarising the history up to an index [upto]
      must key to [upto + 1] (see [create]), and the entries it makes
      redundant to at most [upto]. *)

  val checkpoint :
    t -> upto:int -> worth:(string -> bool) -> (unit -> string) -> int option
  (** [checkpoint t ~upto ~worth record] appends [record ()] (relocating
      first if the log is full), drops what it covers ({!drop_upto}) and
      emits a [Checkpoint] event — [Some upto], two fences — or returns
      [None] when [worth] declines the encoded record. When the record
      covers every live entry, and it and one 64 KiB reserve fit below the
      head, the checkpoint restarts the log at its front instead (see the
      module doc), in the same two fences: the dead prefix is reused, and
      the old live span's zeroing rides on the next fence. When the newest
      live checkpoint already covers [upto], it appends and encodes
      nothing and returns that checkpoint's index. The record is taken
      to key to [upto + 1], as the headroom rule requires, so it is not
      decoded again for its key. The log remembers the
      checkpoint until {!recover} or {!recover_unhardened} reloads it, or
      a {!scrub} or {!relocate} rewrites or quarantines a span.
      @raise Full if the record does not fit. *)

  val note_checkpoint : t -> string -> unit
  (** Remember a payload in the log as its newest live checkpoint (after
      a recovery, whose caller alone can tell). *)

  val decode_recovered :
    t ->
    'a Onll_util.Codec.t ->
    checkpoint:('a -> bool) ->
    failures:int ref ->
    string list ->
    'a list
  (** Recovery's reading of this log's payloads (from {!recover} or
      {!entries}): decode each, dropping and counting in [failures] those
      that do not decode, and {!note_checkpoint} the newest one that
      [checkpoint] recognises. *)

  val recover_decoded :
    t ->
    'a Onll_util.Codec.t ->
    key:('a -> int) ->
    checkpoint:('a -> bool) ->
    failures:int ref ->
    salvage_report * 'a list
  (** {!recover}, then {!decode_recovered} of its payloads, in one walk:
      each payload is decoded as the walk finds it, so none outlives its
      decode, and the account takes a decoded payload's key from [key]
      of its value, which must be what [create]'s [key] maps the payload
      to (a payload that does not decode is keyed by [create]'s [key]). *)

  val append_compacting :
    ?key:int ->
    t ->
    compact:(worth:(string -> bool) -> unit) ->
    string ->
    unit
  (** [append ?key], first running [compact] — {!checkpoint} with [worth],
      then prune and {!relocate} if it wrote one — when the free space is below
      the record plus twice the newest checkpoint's footprint. A log that
      knows no footprint asks once the free space is below the record plus
      its live bytes, and [worth] then only measures the record unless the
      free space is already below the record plus twice its footprint: one
      state encode per compaction, plus one per log that starts without a
      checkpoint. If
      [compact] raises {!Full} the append is still tried.
      @raise Full if the record does not fit. *)

  val capacity : t -> int
  val name : t -> string
end
