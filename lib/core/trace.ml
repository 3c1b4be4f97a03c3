(** The transient execution trace (paper §4.1.2, Listing 2).

    A lock-free, tail-linked list of the update operations applied to the
    object, newest at the tail, each node carrying a dense execution index
    and an available flag. The suffix of nodes with unset available flags up
    to (but not including) the newest node whose flag is set is the {e fuzzy
    window}: operations whose durability and linearization are not yet
    guaranteed (Figure 2). Available flags are only ever set, never cleared.

    Extension (§8): the oldest end of the chain may be terminated by a
    {!link.Base} summarising the pruned prefix as a materialised state, which
    both bounds traversal cost and lets the garbage collector reclaim old
    nodes. A [Base (i, s)] asserts that [s] is the object state after the
    operations with indices [.. i]; any node whose [next] is a base has
    index [i + 1] (the sentinel, which carries no operation, has index [i]).

    This module is deliberately dumb about operation payloads — it stores
    ['env] envelopes — so the same trace serves every specification. *)

module Make (M : Onll_machine.Machine_sig.S) = struct
  type ('env, 'state) node = {
    env : 'env option;  (** [None] only for the sentinel *)
    mutable idx : int;  (** fixed once the node is published *)
    available : bool M.Tvar.t;
    next : ('env, 'state) link M.Tvar.t;  (** towards older operations *)
  }

  and ('env, 'state) link =
    | Older of ('env, 'state) node
    | Base of int * 'state

  type ('env, 'state) t = {
    tail : ('env, 'state) node M.Tvar.t;
    tr_sink : Onll_obs.Sink.t;
  }

  let create ?(sink = Onll_obs.Sink.null) ~base_idx ~base_state () =
    let sentinel =
      {
        env = None;
        idx = base_idx;
        available = M.Tvar.make true;
        next = M.Tvar.make (Base (base_idx, base_state));
      }
    in
    { tail = M.Tvar.make sentinel; tr_sink = sink }

  (* Listing 2, [insert]: assign the next execution index and CAS the node
     in at the tail. The [idx] and [next] writes happen before publication,
     so they are safe plain writes. *)
  let insert t env =
    let rec loop node =
      if Onll_obs.Sink.active t.tr_sink then
        Onll_obs.Sink.emit t.tr_sink ~proc:(M.self ())
          (Onll_obs.Event.Cas_retry { site = "trace.insert" });
      let ltail = M.Tvar.get t.tail in
      node.idx <- ltail.idx + 1;
      M.Tvar.set node.next (Older ltail);
      if M.Tvar.cas t.tail ~expected:ltail ~desired:node then node
      else loop node
    in
    let ltail = M.Tvar.get t.tail in
    let node =
      {
        env = Some env;
        idx = ltail.idx + 1;
        available = M.Tvar.make false;
        next = M.Tvar.make (Older ltail);
      }
    in
    if M.Tvar.cas t.tail ~expected:ltail ~desired:node then node
    else loop node

  let tail t = M.Tvar.get t.tail

  (* Listing 2, [latestAvailable]: first node with a set available flag,
     walking from the given node towards older operations. Total: available
     flags are never cleared and every chain ends in an available node (the
     sentinel or a prune point, which is available by construction). *)
  let rec latest_available_from node =
    if M.Tvar.get node.available then node
    else
      match M.Tvar.get node.next with
      | Older older -> latest_available_from older
      | Base _ ->
          (* Unreachable: a node whose [next] is a base is available. *)
          assert false

  let latest_available t = latest_available_from (tail t)

  (* Listing 2, [getFuzzyOps]: the envelopes of [node] and of the
     not-yet-available operations preceding it, newest first. Indices are
     contiguous and descending from [node.idx]. Bounded by MAX-PROCESSES
     (Proposition 5.2), so the list is built on the way back, with no
     reversal. *)
  let rec fuzzy_envs curr =
    if M.Tvar.get curr.available then []
    else
      let older =
        match M.Tvar.get curr.next with
        | Older older -> fuzzy_envs older
        | Base _ -> assert false
      in
      match curr.env with Some e -> e :: older | None -> older

  (* The same window with each envelope's node. *)
  let fuzzy_nodes node =
    let rec walk curr acc =
      if M.Tvar.get curr.available then List.rev acc
      else
        let acc =
          match curr.env with Some e -> (curr, e) :: acc | None -> acc
        in
        match M.Tvar.get curr.next with
        | Older older -> walk older acc
        | Base _ -> assert false
    in
    walk node []

  (* Operations strictly newer than [floor] needed to reach [node]'s state:
     returns the starting state and the envelopes to apply, oldest first.
     [floor], when given, is a (index, state) pair the caller already
     knows (a local view, §8); the walk stops there if reached before the
     chain's base. *)
  let delta_from ?floor node =
    let rec walk curr acc =
      match floor with
      | Some (fi, fs) when curr.idx <= fi -> (fs, acc)
      | _ -> (
          let acc =
            match curr.env with Some e -> (curr.idx, e) :: acc | None -> acc
          in
          match M.Tvar.get curr.next with
          | Base (_, bstate) -> (bstate, acc)
          | Older older -> walk older acc)
    in
    walk node []

  (* All reachable nodes, oldest first, for recovery checks and tests. *)
  let to_list t =
    let rec walk curr acc =
      let acc =
        (curr.idx, M.Tvar.get curr.available, curr.env) :: acc
      in
      match M.Tvar.get curr.next with
      | Base _ -> acc
      | Older older -> walk older acc
    in
    walk (tail t) []

  let base_of t =
    let rec walk curr =
      match M.Tvar.get curr.next with
      | Base (i, s) -> (i, s)
      | Older older -> walk older
    in
    walk (tail t)

  (* §8 pruning: make nodes with index < [below] unreachable by installing a
     base summarising them. Requires the node at [below] to exist and be
     available (so no fuzzy-window or latest-available walk can need the
     pruned prefix), and a state function to materialise the summary. A
     prune at or below the current base is a no-op, as after a deeper
     concurrent prune. *)
  let prune t ~below ~state_before =
    let rec find curr =
      if curr.idx = below then Some curr
      else if curr.idx < below then
        invalid_arg "Trace.prune: no node at index"
      else
        match M.Tvar.get curr.next with
        | Older older -> find older
        | Base _ -> None
    in
    match find (tail t) with
    | None -> ()
    | Some node -> (
        match M.Tvar.get node.next with
        | Base _ | Older { env = None; _ } ->
            ()  (* the base is already at [below - 1] *)
        | Older older ->
            if not (M.Tvar.get node.available) then
              invalid_arg "Trace.prune: node not yet available";
            M.Tvar.set node.next (Base (node.idx - 1, state_before older)))
end
