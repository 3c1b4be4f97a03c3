(** Structured event sinks.

    A sink is where instrumented components deliver {!Event.t}s. Every
    sink owns a {!Metrics.t} registry into which it folds each event as
    it arrives (fence → ["fences.total"]/["fences.persistent"], flush →
    ["flushes"]/["flushes.lines"], cas_retry → ["cas.retries"], help →
    ["help.events"]/["help.ops"], checkpoint → ["checkpoints"], recovery
    → ["recoveries"]/["recovery.ops"], crash → ["crashes"], log_append →
    ["log.appends"]/["log.bytes"], log_compact → ["log.compactions"]/
    ["log.dropped_entries"], fault_injected → ["faults.injected"], retry →
    ["retries"], salvage → ["salvages"]/["salvage.quarantined"]/
    ["salvage.bytes_lost"], recovery_interrupted →
    ["recovery.interruptions"], repair → ["repairs"]/["repair.entries"]/
    ["repair.bytes"], scrub → ["scrubs"]/["scrub.entries"]/
    ["scrub.repaired"]/["scrub.unrepairable"], route → ["routes"]/
    ["routes.global"], session → ["session.ops"] plus one of
    ["session.ok"]/["session.duplicates"]/["session.in_doubt"]/
    ["session.sheds"]/["session.refused"]), and optionally a handler that receives the
    full structured stream. Events are stamped with a per-sink logical
    clock, so one sink threaded through several components yields a
    single totally ordered history.

    {b Zero overhead by default.} Components hold {!null} unless a sink
    is explicitly installed; {!emit} on an inactive sink returns
    immediately, and hot paths additionally guard with {!active} so they
    do not even allocate the event payload:
    {[
      if Sink.active sink then
        Sink.emit sink ~proc (Event.Fence { persistent = true })
    ]} *)

type t

val null : t
(** The default no-op sink: {!active} is [false], {!emit} does nothing.
    Its registry exists (so handle resolution never needs an option) but
    is never written. *)

val make :
  ?registry:Metrics.t -> ?handler:(Event.t -> unit) -> unit -> t
(** An active sink. [registry] (fresh by default) receives the folded
    counters; [handler], when given, receives every stamped event. *)

val recording :
  ?registry:Metrics.t -> unit -> t * (unit -> Event.t list)
(** [recording ()] is an active sink plus a function returning every
    event emitted so far, oldest first — for tests and debugging. *)

val active : t -> bool
(** [false] only for {!null}. Hot paths check this before building an
    event payload. *)

val emit : t -> proc:int -> Event.kind -> unit
(** Stamp and deliver an event. No-op on {!null}. Use [proc = -1] for
    whole-system events (crash). *)

val registry : t -> Metrics.t
val now : t -> int
(** The logical clock: number of events emitted so far. *)
