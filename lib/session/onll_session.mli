(** Exactly-once client sessions (E15) over a client table.

    The object a session drives is a {!Onll_core.Client_table} around the
    caller's specification: its state records, beside the inner state,
    each client's last applied sequence number. A submission is one
    tracked update [(client, seq, op)], which applies [op] and records
    [seq] in the same [apply], or answers {!answer.Duplicate} when [seq]
    is not above the recorded one. The table is part of the state, so it
    is durable wherever the object is, and a client's fate after a crash
    is answerable from recovered state alone: {!attach} reads the
    client's entry and sets the cursor past it.

    [onll serve] runs each exactly-once connection through a session
    ([Onll_serve.Service]), so this is the protocol it serves:
    {ul
    {- {b one sequence number per operation} — {!submit} takes the
       cursor's [seq] and advances the cursor only on an answer, so a
       resubmission after {!error.In_doubt} runs under the same [seq];}
    {- {b resubmission is safe} — a [seq] at or below the client's entry
       answers {!answer.Duplicate} without a second apply, and the
       update's fence makes the earlier apply durable before the answer.
       After a crash, a client resubmits its unacknowledged operation
       under the [seq] it used ([?seq]); the table decides whether it
       applies now or had applied before;}
    {- {b the log is compacted before anything is shed} — admission
       belongs to the object, not to a client: every session over one
       object shares its {!Onll_core.Admission.t}, which samples the
       backend's log fill on every submission (an O(1) read of the logs'
       in-memory accounts, [b_pressure]), compacts at its watermark
       ([b_compact]), and refuses the submission ({!error.Overloaded})
       only when what compaction cannot reclaim still reaches the
       watermark;}
    {- {b degraded media refuses writes} — when the backend's sticky
       degraded flag is up, submissions answer {!error.Degraded}. Reads
       are always served.}}

    {b Cost.} The session adds no fence of its own and owns no region: a
    submission is the object's one update, so it pays exactly the
    object's one persistent fence (Theorem 5.1), and {!attach} and
    {!read} pay none (asserted by the E1 fence audit for the
    ["onll-session"] registry entry). *)

type error =
  | In_doubt
      (** A transient fault escaped the object's update: the operation
          may or may not take effect. Resubmit it — the same operation —
          under the same [seq]; the cursor has not moved. *)
  | Overloaded
      (** Admission control shed the submission: even after a compaction
          the backend's live history reaches the watermark. Not
          applied. *)
  | Degraded
      (** The backend has admitted unrepairable durable loss, and the
          session writes nothing over it. Not applied. *)

val pp_error : Format.formatter -> error -> unit

(** What a session needs from its object: a record of closures, so one
    session type composes with every stack below it.
    [Onll_stack.Make.backend] builds it for any legal front. *)
type ('update, 'read, 'value) backend = {
  b_update : 'update -> 'value;
      (** the object's durable update: it returns only once its
          persistent fence has run *)
  b_read : 'read -> 'value;  (** fence-free *)
  b_degraded : unit -> bool;  (** the sticky degraded snapshot flag *)
  b_pressure : unit -> float;
      (** max over the object's logs of live bytes / log capacity
          ({!Onll_core.Onll.CONSTRUCTION.log_fill}), sampled on every
          submission, so it must be O(1) and load nothing durable *)
  b_compact : unit -> unit;
      (** {!Onll_core.Onll.CONSTRUCTION.compact}; admission control calls
          it when [b_pressure] reaches the watermark *)
}

module Make (S : Onll_core.Spec.S) : sig
  type nonrec backend =
    ( Onll_core.Client_table.Make(S).update_op,
      Onll_core.Client_table.Make(S).read_op,
      Onll_core.Client_table.Make(S).value )
    backend
  (** A backend over [Onll_core.Client_table.Make (S)]. *)

  type t
  (** One client's session: its id and cursor. A client's submissions
      must not run concurrently with each other. *)

  (** What a submission did. *)
  type answer =
    | Applied of S.value  (** applied now, with this return value *)
    | Duplicate
        (** the [seq] was at or below the client's entry: an earlier try
            had applied, and nothing was applied now *)

  val attach :
    ?sink:Onll_obs.Sink.t ->
    admission:Onll_core.Admission.t ->
    client:int ->
    backend ->
    t
  (** Open client [client]'s session: one fence-free read of its table
      entry, which sets the cursor just past it. Attach again after the
      backend's recovery. [admission] is the object's: create one per
      object ({!Onll_core.Admission.create}; a watermark of [1.0] or more
      admits everything) and pass it to every session over it. [sink]
      receives the session's outcome events. *)

  val submit : ?seq:int -> t -> S.update_op -> (answer, error) result
  (** Exactly-once submission under [seq] (default {!next_seq}): one
      tracked update. The cursor moves past [seq] on an answer, and on an
      error stays where it was. Any exception from [b_update] other than
      a transient fault (for instance [Onll_nvm.File_memory.Degraded])
      reaches the caller, the cursor unmoved.
      @raise Invalid_argument if [seq] is above {!next_seq}: the table
      only accepts a client's sequence numbers in order. *)

  val read : t -> S.read_op -> S.value
  (** Fence-free, never refused. *)

  val next_seq : t -> int  (** one past the client's last applied seq *)
end
