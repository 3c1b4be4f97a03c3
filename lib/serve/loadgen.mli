(** `onll load`: an open-loop load generator for {!Server}.

    Drives [clients] concurrent connections from one process (poll(2)
    event loop, nonblocking sockets). Arrivals are {e open-loop}: each
    client draws exponential inter-arrival gaps from its own seeded
    stream, independent of responses, so latency includes queueing delay
    when the server falls behind — the honest regime for SLO numbers.
    Reported latency is arrival→confirmation in microseconds
    (p50/p99/p999), plus shed rate and goodput (confirmed ops per
    second).

    The client side implements the full robustness contract:
    {ul
    {- bounded exponential backoff with seeded jitter on
       {!Protocol.refusal.R_overloaded} (same op, same seq — shedding is
       definite);}
    {- reconnect-and-resolve on {!Protocol.refusal.R_timeout}, degraded
       refusals, connection resets and server restarts: the client
       re-Hellos and applies the {!Protocol.resp.Attached} resolution
       rule, so an in-doubt operation is adopted or re-invoked, never
       blindly re-submitted;}
    {- optional churn floods: every [churn_every_ms], a seeded
       [churn_frac] of connected clients hard-close and reattach —
       the disconnect/reattach storm of the E18 campaign.}}

    The {!Audit} accumulates the exactly-once evidence across {e runs}
    (a kill-restart campaign runs several passes over one store): every
    confirmation is (client, seq)-keyed and must happen at most once;
    unresolved in-doubt operations carry over to the next pass. *)

module Audit : sig
  type t

  val create : unit -> t

  val confirmed : t -> int  (** distinct (client, seq) ops confirmed *)

  val duplicates : t -> int  (** (client, seq) confirmed twice — must be 0 *)

  val unresolved : t -> int  (** ops still in doubt (carry to next pass) *)

  val max_outstanding_client : t -> int
  (** Highest client id with an in-doubt op ([-1] if none) — a
      resolve-only pass must span at least this many clients or it
      cannot resolve everything. *)

  val check_final : t -> counter_value:int -> string list
  (** The end-of-campaign verdict, given a direct read of the counter
      after every client resolved: value > confirmed is a duplicate (or
      phantom) apply, value < confirmed is a lost acked update; any
      still-unresolved op is a violation. Empty = clean. *)
end

type config = {
  socket_path : string;
  clients : int;
  first_client : int;  (** client ids are [first_client ..  +clients-1] *)
  rate_hz : float;  (** per-client open-loop arrival rate *)
  duration_ms : int;  (** issuing window; 0 = resolve-only pass *)
  seed : int;
  token : string;
  deadline_ms : int;  (** per-op deadline stamped on submits; 0 = none *)
  max_attempts : int;  (** per-op shed-retry budget *)
  backoff_base_ms : int;
  backoff_cap_ms : int;
  churn_every_ms : int;  (** 0 = no churn *)
  churn_frac : float;
  connect_timeout_ms : int;
      (** per-connection budget for connect/Hello retries against a dead
          or restarting server before the pass gives up on it *)
  tier : Protocol.tier;
      (** durability tier every client asks for at Hello (E20). The
          relaxed tiers waive the server-side dedup: a retry after an
          indeterminate refusal may double-apply, so drive them with the
          exactly-once audit disabled (or fault-free). *)
}

val default_config : socket_path:string -> config
(** 64 clients, 50 ops/s each, 2 s, seed 1, deadline 500 ms, 8 attempts,
    backoff 1→64 ms, no churn, exactly-once tier. *)

type report = {
  r_sent : int;  (** submit frames written *)
  r_confirmed : int;  (** ops confirmed during this pass *)
  r_acked : int;  (** direct protocol acks among them *)
  r_adopted : int;  (** confirmed via reattach resolution/cursor *)
  r_shed : int;  (** R_overloaded refusals *)
  r_timeouts : int;
  r_degraded : int;
  r_draining : int;
  r_bad_seq : int;
  r_aborted : int;  (** ops given up (shed budget, degraded policy) *)
  r_dropped_arrivals : int;  (** arrivals never submitted (pass ended) *)
  r_reconnects : int;
  r_conn_failures : int;  (** connections that never re-established *)
  r_unresolved : int;  (** in doubt at pass end *)
  r_wall_ms : int;
  r_p50_us : int;
  r_p99_us : int;
  r_p999_us : int;
  r_goodput : float;  (** confirmed ops / wall second *)
  r_shed_rate : float;  (** shed / (shed + confirmed + aborted) *)
  r_final_value : int option;  (** counter read at pass end, if readable *)
}

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> string

val poll_timeout_ms : now:int -> due:int -> int
(** The event loop's poll timeout when its earliest timed event (an
    arrival, a backoff or a reconnect) is due at [due] (ns, on the clock
    [now] reads): the wait until then rounded up to whole milliseconds,
    [0] when already due, at most 10 ms. *)

val run : ?audit:Audit.t -> config -> report
(** One pass. With [duration_ms = 0] no new operations are issued: every
    client attaches, resolves what the audit says is in doubt, and one
    client reads the final counter value — the campaign's resolution
    pass after a server kill. *)
