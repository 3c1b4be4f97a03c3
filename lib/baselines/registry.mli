(** Name-indexed construction of every benchmarked implementation.

    One place that knows how to build ["onll"], ["onll-wait-free"] (alias ["wait-free"]), ["onll-mirrored"] (alias
    ["mirrored"]; two-way replicated logs, still one fence per update),
    ["onll-sharded"] (alias ["sharded"]; the E14 partitioned construction —
    each op routed to one of [shards] independent ONLL instances, still one
    fence per update), ["onll-session"] (alias ["session"]; the plain
    construction over a client table, driven through per-client
    {!Onll_session} exactly-once sessions — still one fence per update:
    a submission is the object's one update, and the session owns no
    region),
    ["onll-batched"] (alias ["batched"]; E16 group commit, the construction
    under the combining persist policy — an update another process's
    persist covers pays no fence, so concurrent updates amortise below 1
    pf/update, degenerating to exactly 1 solo), ["onll-txn"] (alias ["txn"]; the E19
    cross-shard transaction coordinator over 4 shards — multi-shard
    transactions commit under one coordinator fence, single updates take
    the sharded fast path), ["onll-relaxed"] (alias ["relaxed"]; the E20
    bounded-staleness mode — fence-free acks under a risk budget, one
    lazy fence per full tail, strictly below 1 pf/update),
    ["persist-on-read"], ["shadow"],
    ["flat-combining"] and ["volatile"] over a fresh simulated machine —
    used by the CLI ([onll lowerbound -i], [onll stats -i]), the
    lower-bound benchmark and the fence audit instead of per-caller copies
    of the same match.

    Compositions are not new names: they are {!Onll_stack.t} values in
    {!options}, built by ["onll"]. Which layers compose is that type; a
    family name is shorthand for one stack ({!family}). *)

type handle = {
  sim : Onll_machine.Sim.t;
  sink : Onll_obs.Sink.t;  (** the sink the build installed *)
  update : unit -> unit;
      (** one update by the calling (scheduled) process *)
  read : unit -> unit;  (** one read-only operation *)
  scrub : (unit -> unit) option;
      (** one cooperative online-scrub step ({!Onll_core.Onll.CONSTRUCTION.scrub});
          [None] for implementations without one *)
  recover : (unit -> Onll_core.Onll.Recovery_report.t) option;
      (** hardened post-crash recovery
          ({!Onll_core.Onll.CONSTRUCTION.recover_report}); [None] for
          implementations without one — [onll stats --crash] uses this *)
}

type options = {
  log_capacity : int;  (** bytes per persistent log (default 64 KiB) *)
  state_capacity : int;
      (** bytes per shadow-state region (["shadow"] only; default 4096) *)
  stack : Onll_stack.t;
      (** what ["onll"] builds (default {!Onll_stack.plain}); the other
          family names build their own stack *)
}
(** Capacities for every implementation, and the stack ["onll"] builds. *)

val default_options : options

val names : string list
(** Canonical implementation names, in report order (aliases excluded). *)

val family : ?shards:int -> string -> Onll_stack.t option
(** The stack an ONLL family name (or alias) denotes; [None] for a
    baseline or an unknown name. [shards] (default 4) sizes
    ["onll-sharded"] and ["onll-txn"], and nothing else. *)

val recovery_capable : string list
(** The subset of {!names} with hardened recovery (the ONLL family) — the
    implementations [onll stats --crash] and the crash harnesses accept. *)

module Make (S : Onll_core.Spec.S) : sig
  val build :
    ?sink:Onll_obs.Sink.t ->
    ?options:options ->
    ?shards:int ->
    max_processes:int ->
    gen_update:(unit -> S.update_op) ->
    gen_read:(unit -> S.read_op) ->
    string ->
    handle option
  (** Build the named implementation on a fresh {!Onll_machine.Sim.t},
      installing [sink] (default {!Onll_obs.Sink.null}) in both the machine
      and the object. [gen_update]/[gen_read] supply the operation each
      thunk invocation performs (close over an RNG for random workloads).
      [options] (default {!default_options}) sets the capacities and, for
      ["onll"], the stack; any other family name builds {!family}
      [?shards name]. [None] for an unknown name — see {!names}. *)
end
