(** The socket shell of `onll serve`: a single-threaded poll(2) event
    loop over a Unix-domain socket, speaking {!Protocol} frames into
    {!Service.Make.handle}.

    The shell owns everything the service core is pure of: accepting,
    nonblocking reads/writes, per-connection buffers, wall-clock deadline
    enforcement (a {!Protocol.req.Submit} whose deadline has already
    passed is refused {e before} any durable work), idle-connection
    reaping, and graceful drain — on SIGTERM (or {!request_drain}) the
    listener closes, buffered in-flight requests are answered (completed
    if already durable, refused with {!Protocol.refusal.R_draining}
    otherwise), every response buffer is flushed, a final fence runs, and
    {!Make.run} returns. Nothing is ever acknowledged after a refused
    fence: the final fence is the last durable action before exit.

    Cost per loop iteration: one [poll(2)] over a persistent
    {!Netpoll} set (O(open connections), in the kernel and in building
    its argument), then work only for the connections it reports ready.
    Connections live in a dense table indexed like the poll set; a
    connection's interest bits change only when its pending output
    crosses zero, and closes are queued and applied after the ready
    pass. Idle connections are looked for on a coarse cadence, every
    [max 100 (idle_timeout_ms / 10)] ms, so one is reaped at most that
    long after its timeout; with no traffic the loop wakes every
    100 ms. *)

val request_drain : unit -> unit
(** Signal-handler-safe: ask the running server to drain. {!Make.run}
    installs it as the [SIGTERM] handler for the duration of the run. *)

type config = {
  socket_path : string;
  idle_timeout_ms : int;  (** reap connections idle this long; 0 = never *)
  max_conns : int;  (** beyond this, accepted connections close at once *)
  drain_grace_ms : int;
      (** max time to flush responses after drain before hard-closing *)
  on_ready : unit -> unit;
      (** called once listening (harnesses print a READY line) *)
}

val default_config : socket_path:string -> config
(** 30 s idle timeout, 12_000 connections, 2 s drain grace, no-op
    [on_ready]. *)

module Make (M : Onll_machine.Machine_sig.S) : sig
  module Svc : module type of Service.Make (M)

  val run : Svc.t -> config -> unit
  (** Serve until drained. Binds (replacing any stale file at)
      [socket_path], accepts, and loops. Returns after a completed
      drain; the socket file is removed. *)
end
