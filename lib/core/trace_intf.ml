(** What the universal construction needs from an execution trace.

    Two implementations exist: the paper's lock-free tail-linked structure
    (Listing 2, {!Trace}) and a wait-free
    variant in the Kogan–Petrank style ({!Wf_trace}), realising the §8
    remark that the trace is the only non-wait-free component and can be
    swapped for a wait-free one without touching the fence argument.

    Every node carries a {!Slot}: the state after it and the value of its
    own operation, published by the first fold through it. *)

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

  val insert : ('env, 'state, 'value) t -> 'env -> ('env, 'state, 'value) node
  (** Append an operation, assigning it the next execution index. *)

  val idx : ('env, 'state, 'value) node -> int
  (** Only meaningful for nodes the caller inserted or that were observed
      available. *)

  val is_available : ('env, 'state, 'value) node -> bool
  val set_available : ('env, 'state, 'value) node -> unit

  val latest_available :
    ('env, 'state, 'value) t -> ('env, 'state, 'value) node
  (** The newest available node, found again while the one found has a
      newer one and its state has left its slot ({!Slot}). *)

  val fuzzy_envs :
    ('env, 'state, 'value) t -> ('env, 'state, 'value) node -> 'env list
  (** [node]'s envelope plus the not-yet-available operations preceding it,
      newest first, with contiguous descending execution indices. *)

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

  val value_at :
    ('env, 'state, 'value) t ->
    ('env, 'state, 'value) node ->
    apply:('state -> 'env -> 'state * 'value) ->
    'value
  (** The value of [node]'s operation, for its owner, who asks once
      ({!Slot.take}). *)

  val to_list : ('env, 'state, 'value) t -> (int * bool * 'env option) list
  (** All reachable nodes, oldest first, for tests and recovery checks. *)

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
      not available. *)

  val rebase :
    ('env, 'state, 'value) t -> ('env, 'state, 'value) node -> 'state -> unit
  (** Compaction's prune (§8): the available [node], whose state is
      given, becomes the base, its own operation included. A no-op at or
      below the current base; a node obtained before still answers
      {!state_at}. *)
end
