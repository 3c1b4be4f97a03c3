(** Durable client sessions (E15): exactly-once submission over any ONLL
    construction.

    The construction is {e detectable} — after a crash,
    {!Onll_core.Onll.CONSTRUCTION.was_linearized} answers whether a pending
    update took effect — but detectability is a primitive, not a protocol:
    every consumer still has to choose fresh sequence numbers that survive
    crashes, remember which operation was in flight, interrogate the
    recovered object, and decide whether to re-invoke. This module is that
    protocol, packaged: a per-client session that owns a small {e durable
    client record} (client id, next sequence number, last-acked sequence
    number) in its own single-fence {!Onll_plog.Plog} region, and drives
    {!Onll_core.Onll.CONSTRUCTION.update_detectable} so that

    {ul
    {- {b sequence numbers are never reused across crashes} — every
       submission appends an intent record {e before} invoking the object,
       so the next sequence number is always recoverable from media;}
    {- {b submission is exactly-once} — after a crash-restart, {!recover}
       resolves the one in-doubt operation: if it linearized, it is never
       re-invoked ({!resolution.Was_applied}); if it did not, it is
       re-invoked under a fresh identity ({!resolution.Reinvoked}) —
       either way the operation takes effect exactly once in the adopted
       history, which duplicate-sensitive objects (counter, ledger) make
       observable and the E15 campaign audits;}
    {- {b transient faults are retried, not leaked} — a flush/fence that
       keeps failing ({!Onll_nvm.Memory.Transient_fault} escaping the
       log's own bounded retry) is retried with bounded exponential
       backoff and deterministic jitter, and a per-operation deadline
       converts a stuck log into {!error.Timeout} instead of an unbounded
       hang;}
    {- {b the log is compacted before anything is shed} — admission
       control samples the backend's log fill on every submission (an
       O(1) read of the logs' in-memory accounts, {!backend.b_pressure}).
       At the watermark it compacts the backend first
       ({!backend.b_compact}) and samples again, and refuses the
       submission ({!error.Overloaded}) only when the live history that
       compaction cannot reclaim still reaches the watermark — {e before}
       the update path's own compaction, which cannot resolve a
       session's in-doubt identity, runs;}
    {- {b degraded media is a policy, not a surprise} — when the backend's
       sticky degraded flag is up (recovery or scrubbing admitted
       unrepairable loss), the session applies its configured
       {!degradation} policy: refuse new writes but still honour promised
       re-invocations ({!degradation.Fail_writes}), refuse all write-path
       work including re-invocations ({!degradation.Read_only}), or keep
       serving and count it ({!degradation.Best_effort}). Reads are served
       under every policy — the surviving state is admitted, never
       silent.}}

    {b Cost.} The session adds exactly {e one} persistent fence per
    submission — its own intent append — and {e zero} fences to the
    object's update path, which keeps Theorem 5.1's bound intact per
    layer: 1 pf for the client record + 1 pf for the update, 0 pf per
    read (asserted by the E1 fence audit for the ["onll-session"] registry
    entry). Session fences are attributed to ["fences.session"] /
    ["ops.session"] (and compaction of the session log itself to
    ["fences.session.compact"]), never to the object's per-update
    attribution.

    {b Timeout is indeterminate.} A submission that returns
    {!error.Timeout} may or may not take effect: if the intent became
    durable but the object invocation stalled, a later {!recover} will
    resolve it (possibly re-invoking it). This is the same indeterminacy a
    timed-out RPC has; clients that need the answer call {!recover} (or
    {!pending}) after the fault clears. *)

type error =
  | Timeout
      (** The per-operation deadline expired while retrying transient
          flush/fence faults. Indeterminate: the operation may yet take
          effect (see module doc). *)
  | Overloaded
      (** Admission control shed the submission: even after a compaction
          the backend's live history reaches the configured watermark
          fraction of its log capacity. The shed operation did no durable
          work of its own (a compaction of the backend may have preceded
          the refusal). Definitely not applied. *)
  | Degraded
      (** The degradation policy refused the submission: the backend has
          admitted unrepairable durable loss and this session is
          configured not to write over it. Definitely not applied. *)

val pp_error : Format.formatter -> error -> unit

(** What a session does with {e write-path} work once the backend's sticky
    degraded flag is up. Reads are served under every policy. *)
type degradation =
  | Fail_writes
      (** Refuse {e new} submissions with {!error.Degraded}, but still
          resolve and re-invoke the in-doubt operation at {!recover} —
          promised work is completed, new promises are not made. *)
  | Read_only
      (** Strictest: refuse new submissions {e and} withhold in-doubt
          re-invocation ({!resolution.Refused}) — the session performs no
          write of any kind over a degraded object; the pending operation
          stays pending for a later session (or policy) to resolve. *)
  | Best_effort
      (** Keep writing; every submission accepted while degraded is
          counted under ["session.degraded_writes"]. *)

type config = {
  log_capacity : int;
      (** entries area of the durable client-record log, bytes (default
          4096 — intents are tens of bytes and the log self-compacts) *)
  replicas : int;
      (** mirror the client record over this many regions (default 1);
          all replica flushes drain under the intent append's single
          fence, exactly as the object's logs do *)
  max_attempts : int;
      (** attempts per durable step before {!error.Timeout} (default 8) *)
  backoff_base : int;
      (** first retry's logical backoff (default 1); attempt [k] backs
          off [min (backoff_base * 2^(k-1)) backoff_cap] plus jitter *)
  backoff_cap : int;  (** exponential backoff ceiling (default 64) *)
  deadline : int;
      (** per-operation budget of cumulative logical backoff; once
          exceeded the submission returns {!error.Timeout} ([0] = no
          deadline, retry up to [max_attempts]; default 256) *)
  high_watermark : float;
      (** admission control: at this fill of any backend log (live bytes
          over capacity) compact the backend, and shed submissions while
          the fill compaction leaves still reaches it (default 0.85;
          [>= 1.0] disables admission control) *)
  degradation : degradation;  (** default {!degradation.Fail_writes} *)
  rng_seed : int;
      (** seed for the backoff-jitter RNG. The jitter stream is a pure
          function of [(rng_seed, client)], so chaos campaigns replay
          byte-identically under a pinned seed. [0] (the default) keeps
          the historical per-client derivation — itself deterministic,
          but not campaign-selectable. *)
}

val default_config : config

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) : sig
  (** What the session needs from the object: a record of closures, so
      one session type composes with every stack below it (whose module
      types differ). [Onll_stack.Make.backend] builds it for any legal
      stack. [was_linearized] takes the operation because sharded
      identities are per shard. *)
  type backend = {
    b_update_detectable : seq:int -> S.update_op -> S.value;
    b_was_linearized : S.update_op -> Onll_core.Onll.op_id -> bool;
    b_read : S.read_op -> S.value;
    b_degraded : unit -> bool;  (** the sticky degraded snapshot flag *)
    b_pressure : unit -> float;
        (** max over the backend's logs of live bytes / log capacity
            ({!Onll_core.Onll.CONSTRUCTION.log_fill}), sampled on every
            submission, so it must be O(1) and load nothing durable.
            Right after {!b_compact} it is the fraction compaction cannot
            reclaim. *)
    b_compact : unit -> unit;
        (** Compact the backend
            ({!Onll_core.Onll.CONSTRUCTION.compact}); admission control
            calls it when {!b_pressure} reaches the watermark. *)
  }

  type t
  (** One client's durable session. Owned by a single process: {!submit}
      and {!recover} must be called by the machine process whose id is
      the client id. Operation identities are that process and the
      session's own sequence numbers, so one process hosts one session
      over a given object. *)

  (** How {!recover} disposed of the in-doubt operation. *)
  type resolution =
    | No_pending  (** no intent was outstanding *)
    | Was_applied of Onll_core.Onll.op_id
        (** the in-doubt operation is in the adopted history — {e not}
            re-invoked *)
    | Reinvoked of Onll_core.Onll.op_id * Onll_core.Onll.op_id * S.value
        (** [(old, fresh, value)]: the in-doubt operation did not survive;
            it was re-invoked under the fresh identity and returned
            [value] *)
    | Refused of Onll_core.Onll.op_id
        (** {!degradation.Read_only} withheld re-invocation on a degraded
            backend; the operation stays {!pending} *)
    | Unresolved of Onll_core.Onll.op_id * error
        (** the re-invocation attempt itself failed (e.g. transients are
            still raging: {!error.Timeout}); the operation stays
            {!pending} *)

  val pp_resolution : Format.formatter -> resolution -> unit

  val attach :
    ?config:config ->
    ?sink:Onll_obs.Sink.t ->
    ?name:string ->
    client:int ->
    backend ->
    t
  (** Open client [client]'s session over [backend], creating (or, after
      a restart over surviving media, re-reading) the durable client
      record log named [name] (default ["<spec>.session.c<client>"]).
      [client] is also the machine process that runs the session's
      durable work, so it must be below the machine's [max_processes].
      [sink] receives the session's events and
      hosts its counters and per-outcome latency histograms; install the
      same sink as the machine's and the object's for one interleaved
      stream. Attaching performs no object operations — call {!recover}
      before the first {!submit} if the media may hold an interrupted
      session. *)

  val recover : t -> resolution
  (** Crash-recovery resolution: salvage the client-record log, rebuild
      the volatile cursors (next/acked sequence numbers) from it, and
      resolve the in-doubt operation against the {e already-recovered}
      backend — exactly-once's crash half. Call it from the owning
      process after the backend's own recovery, before the first
      post-crash {!submit}. Idempotent: a second call answers
      {!resolution.No_pending} (or {!resolution.Was_applied} for an
      operation resolved as applied but not yet durably acked). *)

  val submit : t -> S.update_op -> (S.value, error) result
  (** Exactly-once submission: durably append the intent (one fence),
      invoke the object (one fence), ack. See the module doc for the
      retry/deadline/admission/degradation behaviour.
      @raise Onll_core.Onll.Log_full if the {e object}'s live history
      outgrows its log — terminal for the configured capacity, and
      normally prevented by admission control compacting, then
      shedding, first.
      @raise Invalid_argument if called with an unresolved {!pending}
      operation (call {!recover} first) or by a process other than the
      owning client. *)

  val read : t -> S.read_op -> S.value
  (** Read through the session: fence-free, never refused. Served under
      every degradation policy ({!degradation} governs writes only);
      reads over a degraded backend are counted under
      ["session.degraded_reads"]. *)

  (** {1 Introspection} *)

  val client : t -> int
  val next_seq : t -> int  (** as recovered/advanced; never reused *)

  val acked_below : t -> int
  (** Every sequence number below this has been resolved (acked to the
      client, or superseded by a recovery resolution). *)

  val pending : t -> (Onll_core.Onll.op_id * S.update_op) option
  (** The durable in-doubt operation, if any. *)

  val last_attempt_ids : t -> Onll_core.Onll.op_id list
  (** Every identity the most recent {!submit} (or {!recover}
      re-invocation) tried, oldest first — the hook the E15 harness uses
      to audit exactly-once at the identity level. Volatile. *)

  val admit : t -> bool
  (** The admission step {!submit} runs before any durable work of its
      own: sample {!backend.b_pressure}; at the watermark call
      {!backend.b_compact} and sample again. [true] admits. A compaction
      that could not get below the watermark is not retried until the
      fill grows past the level it left, so repeated refusals under
      genuine overload cost one O(1) sample each. *)

  val pressure : t -> float
  (** The backend pressure sample admission control last acted on. *)

  val log_name : t -> string  (** the client record's region name *)
end
