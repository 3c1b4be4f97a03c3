(** The serving core of `onll serve`: many clients, one machine process,
    one shared object — independent of any socket.

    This module is the whole request/response state machine; the socket
    shell ({!Server}) and the deterministic chaos/gate slices drive the
    same {!Make.handle}, so everything the campaigns prove about crash
    resolution holds for the served protocol byte-for-byte.

    {b Identity model.} The served object is the counter inside a
    {!Onll_core.Client_table}: its state holds, beside the counter, each
    client's last applied sequence number. The exactly-once protocol is
    {!Onll_session}'s, and the service runs it: a [Hello] at the
    exactly-once tier attaches a session for the connection (one
    fence-free read of the client's entry, which gives [next_seq]), and
    each [Submit] is that session's submission, one tracked update
    [(client, seq, op)] through the object's strict path. It costs the
    object's one persistent fence and nothing else, and records [seq] in
    the same [apply] that applies [op], so the table is durable exactly
    where the object is: in each update's log record, in every
    checkpoint and in every recovery. The entry is the whole of the
    client's durable session: clients join at run time, and no operation
    stays in doubt across a restart or a compaction, because the state
    itself says whether it was applied. A [Submit] at or below the
    session's cursor is a resubmission, answered without a second apply,
    so resubmitting a failed operation under the [next_seq] a [Hello]
    gave is safe even when that operation takes effect after the
    [Hello]. What stays here is the wire: authentication, the relaxed
    tiers, drain, decoding, the flush that settles a failed update before
    a [Hello] answers, and the mapping of each answer to a response. *)

(** Which construction serves the shared counter. All four compose with
    either machine backend (sim or file). *)
type construction = Plain | Mirrored | Sharded | Batched

val construction_of_string : string -> construction option
val construction_name : construction -> string

val stack : ?max_staleness:int -> construction -> Onll_stack.t
(** The layer stack a construction serves: the relaxed front (the plain
    engine with its stale tier, default budget [max_staleness], 64 unless
    given) on [Plain] and [Mirrored] (two replicas), 4 plain shards on
    [Sharded], group commit on [Batched]. *)

module Make (M : Onll_machine.Machine_sig.S) : sig
  type t

  val make :
    ?sink:Onll_obs.Sink.t ->
    ?token:string ->
    ?max_clients:int ->
    ?log_capacity:int ->
    ?max_staleness:int ->
    construction ->
    t
  (** Build the service over machine [M]: the client table around the
      shared counter under [construction], recovered (hardened recovery,
      adopting any surviving history — the restart path over a file
      machine). Recovery rebuilds every client's entry with the state,
      so the service serves at once, with nothing left to resolve.
      [max_clients] bounds the client-id range (default 1024). Each
      client may hold a table entry, so the object log takes
      [log_capacity] (default {!Onll_core.Onll.Config.default}'s) of
      room for updates plus three checkpoints of a full table: what a
      full table needs under {!Onll_plog.Plog.Make.append_compacting}'s
      headroom rule, 48 bytes per client.
      [token] is the shared authentication secret (default ["onll"]).
      [max_staleness] (default 64) caps the staleness bound a [Hello]
      may request ({!Protocol.tier.T_staleness}) — it is the default
      budget of the stale tier ({!Onll_core.Onll.CONSTRUCTION.update_stale})
      of a [Plain] or [Mirrored] object.
      On [Sharded]/[Batched] every relaxed tier is refused with
      {!Protocol.refusal.R_bad_tier}.

      Admission is the object's, one {!Onll_core.Admission.t} shared by
      every tier and every session, and compacts the object before it
      sheds: at 0.85 of the fullest object log,
      {!Onll_core.Onll.CONSTRUCTION.compact}
      (whose checkpoint covers every unfenced acknowledgement), and a
      refusal
      ({!Protocol.refusal.R_overloaded}) only while what compaction
      cannot reclaim still reaches the watermark. *)

  type conn
  (** Per-connection state: unattached, an exactly-once session, or the
      relaxed tier it attached at. Owned by the shell. *)

  val conn : unit -> conn

  val handle : t -> conn -> Protocol.req -> Protocol.resp
  (** The entire protocol semantics; pure of sockets and clocks (the
      shell enforces wall-clock deadlines {e before} calling, so a
      deadline refusal never reaches durable work). A [Hello] answers
      the client's entry: [next_seq = last + 1] with
      {!Protocol.wire_resolution.W_applied}[ last], or [next_seq = 0]
      with [W_none] when the client never applied an operation. After an
      exactly-once submit failed mid-way, the next [Hello] over the
      relaxed front first flushes ({!Onll_core.Onll.CONSTRUCTION.flush}),
      which finishes the failed update, so that the entry it reads is
      final; if that flush fails it answers [W_unresolved last]. An
      exactly-once [Submit] whose update fails mid-way is refused
      indeterminate ({!Protocol.refusal.R_timeout}, or
      {!Protocol.refusal.R_degraded} on a sticky-degraded store): the
      client's next [Hello] says whether it was applied yet, and a
      resubmission under the [next_seq] it gives is deduplicated by the
      table should the failed update still take effect. Only a seq past
      the connection's cursor (the [next_seq] its [Hello] gave, moved
      past each answered submit) is refused
      ({!Protocol.refusal.R_bad_seq}). Each exactly-once submit also
      emits the session's outcome event into [make]'s [sink]. *)

  val drain : t -> unit
  (** Enter drain: every subsequent [Hello]/[Submit] is refused with
      {!Protocol.refusal.R_draining}; reads still answer. *)

  val draining : t -> bool

  val quiesce : t -> unit
  (** Flush the unfenced acknowledgements (E20) and fence, final, before
      exit — an
      orderly shutdown loses no acked operation of any tier; nothing may
      be acked after it fails. *)

  (** {1 Introspection (audits, stats)} *)

  val counter_value : t -> int  (** direct read of the shared object *)

  val degraded : t -> bool
  (** Sticky: true once the object's fence exhausted its write-back
      budget — the operator signal behind `onll serve`'s exit code 3. *)
end
