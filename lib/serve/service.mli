(** The serving core of `onll serve`: many durable client sessions, one
    machine process, one shared object — independent of any socket.

    This module is the whole request/response state machine; the socket
    shell ({!Server}) and the deterministic chaos/gate slices drive the
    same {!Make.handle}, so everything the campaigns prove about crash
    resolution holds for the served protocol byte-for-byte.

    {b Identity model.} Each authenticated client gets its own
    {!Onll_session} (its own single-fence durable region, named
    injectively from the client id), attached with [~proc] = the server's
    machine process. Because every session then shares one machine
    process, their private sequence counters would collide as object
    identities; the service hands each session a shared {e durable
    object-sequence allocator} ({!Onll_session.Make.backend.b_alloc})
    instead. The allocator reserves blocks of identities with one
    persistent fence per block (amortised ~1/block fences per update) by
    appending a high-watermark record to its own region; recovery resumes
    at the watermark, so an identity is never reused across crashes —
    reuse would let {!Onll_core.Onll.CONSTRUCTION.was_linearized} vouch
    for a dead operation and turn recovery into a silent lost update. *)

(** Which construction serves the shared counter. All four compose with
    either machine backend (sim or file). *)
type construction = Plain | Mirrored | Sharded | Batched

val construction_of_string : string -> construction option
val construction_name : construction -> string

val stack : ?max_staleness:int -> construction -> Onll_stack.t
(** The layer stack a construction serves: sessions over the relaxed
    wrapper (risk budget [max_staleness], default 64) on [Plain] and
    [Mirrored] (two replicas), over 4 plain shards on [Sharded], over
    group commit on [Batched] — all with local views. {!Make.make}
    builds it without the session layer ({!Onll_stack.without_session})
    and attaches one session per client itself. *)

val region_name : client:int -> string
(** The durable region (log) name of a client's session: injective in
    [client] (asserted again, with a collision table, at attach time). *)

module Make (M : Onll_machine.Machine_sig.S) : sig
  module Sess : module type of Onll_session.Make (M) (Onll_specs.Counter)

  (** The durable object-sequence allocator (exposed for its restart
      test): block reservation with one fence per [block] identities. *)
  module Oseq : sig
    type t

    val create :
      ?sink:Onll_obs.Sink.t -> ?block:int -> ?name:string -> unit -> t
    (** Open (or re-open, over surviving media) the allocator region.
        After a restart the next identity is the durable watermark — the
        unused tail of the last reserved block is abandoned, never
        re-handed. *)

    val recover : t -> unit
    (** Salvage the region and refold the watermark (restart path). *)

    val next : t -> int
    (** The next never-before-handed-out identity (may fence, once per
        block exhaustion). *)

    val watermark : t -> int
    (** Identities below this are reserved (handed out or abandoned). *)
  end

  type t

  val make :
    ?session:Onll_session.config ->
    ?sink:Onll_obs.Sink.t ->
    ?token:string ->
    ?max_clients:int ->
    ?oseq_block:int ->
    ?log_capacity:int ->
    ?max_staleness:int ->
    construction ->
    t
  (** Build the service over machine [M]: the shared counter under
      [construction] (hardened recovery is run, adopting any surviving
      history — the restart path over a file machine), the object-seq
      allocator, and the session table. Serving is {e recovery-complete}:
      a durable client directory records every client that ever attached,
      and [make] re-attaches and resolves every one of them {e before}
      returning. The order is load-bearing — the construction's
      checkpoint floor vouches for every identity below it, so an
      in-doubt (drawn but possibly never invoked) identity must be
      resolved before new operations can checkpoint past it; resolving
      lazily on the client's next [Hello] would read a phantom apply and
      silently lose the update. [session] configures every
      client session ([log_capacity]/[replicas] of the {e session}
      regions ride in it); [log_capacity] is the {e object}'s.
      [max_clients] bounds the client-id range (default 10_000). [token]
      is the shared authentication secret (default ["onll"]).
      [max_staleness] (default 64) caps the per-session staleness bound
      a [Hello] may request ({!Protocol.tier.T_staleness}) — it is the
      risk budget of the {!Onll_relaxed} wrapper the service attaches
      over a [Plain] or [Mirrored] object. On [Sharded]/[Batched] every
      relaxed tier is refused with {!Protocol.refusal.R_bad_tier}.

      Admission ({!Onll_session.Make.admit}, every tier) compacts the
      object before it sheds: {!Onll_core.Onll.CONSTRUCTION.compact}
      (behind the relaxed wrapper's checkpoint on [Plain]/[Mirrored], so
      the staleness tail stays a suffix). For the same floor reason
      as above, it first resolves every attached session's in-doubt
      operation ({!Sess.recover}, as the client's [Hello] would), and
      withholds compaction, so that admission sheds, only while one
      stays in doubt. A client whose operation was resolved this way
      finds nothing pending at its next [Hello]; its [next_seq] past the
      operation says it was applied (the {!Protocol} resolution
      rule). *)

  type conn
  (** Per-connection authentication state (which session, if any, this
      connection speaks for). Owned by the shell. *)

  val conn : unit -> conn

  val handle : t -> conn -> Protocol.req -> Protocol.resp
  (** The entire protocol semantics; pure of sockets and clocks (the
      shell enforces wall-clock deadlines {e before} calling, so a
      deadline refusal never reaches durable work). A [Hello] on a
      client with an in-doubt operation runs {!Sess.recover} and reports
      the resolution on the wire. A sticky-degraded store
      ({!Onll_nvm.File_memory.Degraded} escaping mid-request) is mapped
      to {!Protocol.refusal.R_degraded} — degraded media is a protocol
      error, not a connection reset. *)

  val drain : t -> unit
  (** Enter drain: every subsequent [Hello]/[Submit] is refused with
      {!Protocol.refusal.R_draining}; reads still answer. *)

  val draining : t -> bool

  val quiesce : t -> unit
  (** Drain the staleness tail (E20) and fence, final, before exit — an
      orderly shutdown loses no acked operation of any tier; nothing may
      be acked after it fails. *)

  (** {1 Introspection (audits, stats)} *)

  val counter_value : t -> int  (** direct read of the shared object *)

  val sessions : t -> int  (** attached sessions *)

  val region_bytes : t -> int
  (** Total durable bytes reserved by per-session regions plus the
      allocator and client-directory regions (the many-small-regions
      cost the ROADMAP flags); also exported as the
      ["serve.region_bytes"] gauge. *)

  val degraded : t -> bool
  (** Sticky: true once {e any} region's fence (object, session,
      allocator or directory) exhausted its write-back budget — the
      operator signal behind `onll serve`'s exit code 3. *)
end
