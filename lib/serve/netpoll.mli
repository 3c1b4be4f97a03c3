(** poll(2)-backed readiness notification for thousands of descriptors.

    [Unix.select] is capped at [FD_SETSIZE] (1024 descriptors on glibc)
    no matter what the process rlimit allows, which rules it out for a
    server or load generator holding 1k–10k connections. This module
    wraps [poll(2)] over a persistent, dense set of descriptors: an entry
    is registered once with {!add}, keeps its index until it is removed,
    and has its interest bits changed in place with {!set_interest}. An
    event-loop iteration therefore allocates nothing and never rebuilds
    the set, and {!ready} visits only the ready entries. *)

val pollin : int  (** interest/result bit: readable *)

val pollout : int  (** interest/result bit: writable *)

val pollerr : int
(** result bit: error, hangup or invalid descriptor ([POLLERR], [POLLHUP],
    [POLLNVAL]) — always reported, never requested. *)

type t
(** A persistent poll set (grows automatically). Its entries occupy the
    indices [0 .. length t - 1]. *)

val create : ?initial:int -> unit -> t

val length : t -> int

val add : t -> Unix.file_descr -> int -> unit
(** [add t fd interest] registers [fd] at index [length t] with an
    [interest] bitmask of {!pollin} / {!pollout}. It is polled from the
    next {!wait} on. *)

val set_interest : t -> int -> int -> unit
(** [set_interest t i interest] replaces the interest bits of entry [i].
    @raise Invalid_argument if [i] is not an index of [t]. *)

val remove : t -> int -> unit
(** [remove t i] drops entry [i] by swap-remove: the entry at index
    [length t - 1] moves to [i] (nothing moves when [i] is the last).
    Callers that map indices to their own records mirror the move.
    @raise Invalid_argument if [i] is not an index of [t]. *)

val wait : t -> timeout_ms:int -> int
(** Poll every entry. Returns the number of ready entries, [0] on
    timeout, or [-1] when interrupted by a signal (callers recheck their
    shutdown flags and loop; the following {!ready} reports nothing).
    [timeout_ms < 0] blocks indefinitely. *)

val ready : t -> (int -> int -> unit) -> unit
(** [ready t f] calls [f i revents] once for every entry [i] whose result
    bits were non-zero at the last {!wait}, in descending index order,
    and then forgets them: a second call before the next {!wait} reports
    nothing. Its cost is one call per ready entry. Inside [f], the caller
    may {!add} entries (first reported after the next {!wait}) and may
    {!remove} the entry [i] it was called for: the entry that moves into
    [i] has a higher index, so it was already reported. Removing any
    other entry inside [f] would misreport indices. *)
