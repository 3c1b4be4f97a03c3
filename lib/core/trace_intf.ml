(** What the universal construction needs from an execution trace.

    Two implementations exist: the paper's lock-free tail-linked structure
    (Listing 2, {!Trace} via {!Trace_adapter.Backward}) and a wait-free
    variant in the Kogan–Petrank style ({!Wf_trace}), realising the §8
    remark that the trace is the only non-wait-free component and can be
    swapped for a wait-free one without touching the fence argument. *)

module type S = sig
  type ('env, 'state) t
  type ('env, 'state) node

  val create :
    ?sink:Onll_obs.Sink.t ->
    base_idx:int ->
    base_state:'state ->
    unit ->
    ('env, 'state) t
  (** [sink] (default {!Onll_obs.Sink.null}) receives [Cas_retry] events
      (and, on helping traces, [Help] events). *)

  val insert : ('env, 'state) t -> 'env -> ('env, 'state) node
  (** Append an operation, assigning it the next execution index. *)

  val idx : ('env, 'state) node -> int
  (** Only meaningful for nodes the caller inserted or that were observed
      available. *)

  val is_available : ('env, 'state) node -> bool
  val set_available : ('env, 'state) node -> unit

  val latest_available : ('env, 'state) t -> ('env, 'state) node

  val fuzzy_envs : ('env, 'state) t -> ('env, 'state) node -> 'env list
  (** [node]'s envelope plus the not-yet-available operations preceding it,
      newest first, with contiguous descending execution indices. *)

  val fuzzy_nodes :
    ('env, 'state) t -> ('env, 'state) node -> (('env, 'state) node * 'env) list
  (** {!fuzzy_envs} with each envelope's node. *)

  val is_newest : ('env, 'state) t -> ('env, 'state) node -> bool
  (** No operation was inserted after [node] (when the call returns). *)

  val delta_from :
    ?floor:('env, 'state) node * 'state ->
    ('env, 'state) t ->
    ('env, 'state) node ->
    'state * (int * 'env) list
  (** Starting state and the (index, envelope) list — oldest first — whose
      application yields the state at [node] inclusive. [floor] is a
      previously observed {e available} node with its known state; an
      unusable floor (newer than [node]) is ignored. *)

  val to_list : ('env, 'state) t -> (int * bool * 'env option) list
  (** All reachable nodes, oldest first, for tests and recovery checks. *)

  val base_of : ('env, 'state) t -> int * 'state

  val prune :
    ('env, 'state) t ->
    below:int ->
    state_before:(('env, 'state) node -> 'state) ->
    unit
  (** Reclaim nodes with index < [below] (§8): install a base at
      [below - 1] whose state is [state_before] the node there. A node
      obtained before the prune passed it still answers {!delta_from}.
      A prune at or below the current base is a no-op.
      @raise Invalid_argument if the node at [below] does not exist or is
      not available. *)
end
