(** What the universal construction needs from an execution trace.

    Two implementations exist: the paper's lock-free tail-linked structure
    (Listing 2, {!Trace}) and a wait-free
    variant in the Kogan–Petrank style ({!Wf_trace}), realising the §8
    remark that the trace is the only non-wait-free component and can be
    swapped for a wait-free one without touching the fence argument.

    Every node carries a {!Slot}: the state after it and the value of its
    own operation, published by the first fold through it.

    Every node also carries one flag, which moves only forward: {e ordered}
    (inserted, invisible to reads) → {e acknowledged} unfenced under a
    staleness budget [b >= 1] (visible to reads, not yet durable) →
    {e durable} (visible, and every node at or below it is in some log
    record or checkpoint). A Listing 3 update goes straight from ordered
    to durable; only a stale update ({!Onll.CONSTRUCTION.update_stale})
    passes through the middle state, and its node is ordered {e under}
    its budget from its insertion on, so a window that meets it knows the
    budget it may be acknowledged under. "Available", the paper's word,
    is durable here. *)

let ordered = 0
let durable = -1

(* Ordered, to be acknowledged under [b >= 1] if at all. *)
let ordered_under b = -1 - b

(* Acknowledged or durable. *)
let visible f = f > 0 || f = durable

(* The budget a stale node was or may be acknowledged under; [f] is
   [ordered_under b] or [b]. *)
let budget f = if f > 0 then f else -1 - f

module type S = sig
  type ('env, 'state, 'value) t
  type ('env, 'state, 'value) node

  val create :
    ?sink:Onll_obs.Sink.t ->
    base_idx:int ->
    base_state:'state ->
    unit ->
    ('env, 'state, 'value) t
  (** [sink] (default {!Onll_obs.Sink.null}) receives [Cas_retry] events
      (and, on helping traces, [Help] events). *)

  val insert :
    ?budget:int -> ('env, 'state, 'value) t -> 'env -> ('env, 'state, 'value) node
  (** Append an operation, assigning it the next execution index, its
      flag {!ordered}, or [ordered_under budget] when given. *)

  val idx : ('env, 'state, 'value) node -> int
  (** Only meaningful for nodes the caller inserted or that were observed
      visible. *)

  val flag : ('env, 'state, 'value) node -> int
  (** {!ordered}, [ordered_under b], the budget [b >= 1] the node was
      acknowledged under, or {!durable}. *)

  val is_available : ('env, 'state, 'value) node -> bool
  (** The flag is {!durable}. *)

  val set_available : ('env, 'state, 'value) node -> unit
  (** Set the flag {!durable}: only once the node and every node below it
      are in some log record or checkpoint. *)

  val set_acked : ('env, 'state, 'value) node -> budget:int -> bool
  (** Move a node ordered under [budget] to acknowledged under it (a
      CAS); [false] if it was no longer ordered (a combining persist made
      it durable). *)

  val latest_available :
    ('env, 'state, 'value) t -> ('env, 'state, 'value) node
  (** The newest visible node (acknowledged or durable), found again
      while the one found has a newer one and its state has left its slot
      ({!Slot}). *)

  val fuzzy_envs :
    ('env, 'state, 'value) t -> ('env, 'state, 'value) node -> 'env list
  (** [node]'s envelope plus the not-yet-durable operations preceding it
      (ordered or acknowledged), newest first, with contiguous descending
      execution indices: the walk stops at the first durable node, or at
      the base, whose operations a checkpoint holds. *)

  val fuzzy_nodes :
    ('env, 'state, 'value) t ->
    ('env, 'state, 'value) node ->
    (('env, 'state, 'value) node * 'env) list
  (** {!fuzzy_envs} with each envelope's node. *)

  val is_newest :
    ('env, 'state, 'value) t -> ('env, 'state, 'value) node -> bool
  (** No operation was inserted after [node] (when the call returns). *)

  val state_at :
    ('env, 'state, 'value) t ->
    ('env, 'state, 'value) node ->
    apply:('state -> 'env -> 'state * 'value) ->
    'state
  (** The state after [node], folded from the newest state published at
      or below it (a base's at worst), publishing each node applied. *)

  val published : ('env, 'state, 'value) node -> 'state option
  (** The state after [node] while its slot holds it: what {!state_at}
      returns with no fold. *)

  val value_at :
    ('env, 'state, 'value) t ->
    ('env, 'state, 'value) node ->
    durable:bool ->
    apply:('state -> 'env -> 'state * 'value) ->
    'value
  (** The value of [node]'s operation, for its owner, who asks once
      ({!Slot.take}), once the node is visible; [durable] says whether it
      is durable (a trace that starts its walks at a node it keeps per
      process keeps only a durable one). *)

  val to_list : ('env, 'state, 'value) t -> (int * int * 'env option) list
  (** All reachable nodes with their flags, oldest first, for tests and
      recovery checks. *)

  val base_of : ('env, 'state, 'value) t -> int * 'state

  val prune :
    ('env, 'state, 'value) t ->
    below:int ->
    state_before:(('env, 'state, 'value) node -> 'state) ->
    unit
  (** Reclaim nodes with index < [below] (§8): install a base at
      [below - 1] whose state is [state_before] the node there. A node
      obtained before the prune passed it still answers {!state_at}.
      A prune at or below the current base is a no-op.
      @raise Invalid_argument if the node at [below] does not exist or is
      not visible. *)

  val rebase :
    ('env, 'state, 'value) t -> ('env, 'state, 'value) node -> 'state -> unit
  (** The prune of compaction and of the update path's cadence (§8): the
      visible [node], whose state is given, becomes the base, its own
      operation included. A no-op at or below the current base; a node
      obtained before still answers {!state_at}. *)
end
