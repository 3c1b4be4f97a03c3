(** The transient execution trace (paper §4.1.2, Listing 2).

    A lock-free, tail-linked list of the update operations applied to the
    object, newest at the tail, each node carrying a dense execution index
    and a flag ({!Trace_intf}: ordered, acknowledged or durable). The
    suffix of nodes that are not durable, up to (but not including) the
    newest durable node, is the {e fuzzy window}: operations whose
    durability is not yet guaranteed (Figure 2). Flags only move forward.

    Extension (§8): the oldest end of the chain may be terminated by a
    {!link.Base} summarising the pruned prefix as a materialised state, which
    both bounds traversal cost and lets the garbage collector reclaim old
    nodes. A [Base (i, s)] asserts that [s] is the object state after the
    operations with indices [.. i]; a node whose [next] is a base has index
    [i + 1] (a {!prune}), or index [i] when its own operation is inside the
    base (the sentinel, which carries none, and a {!rebase}). Each node's
    {!Slot} holds what the first fold through it computed.

    This module is deliberately dumb about operation payloads — it stores
    ['env] envelopes — so the same trace serves every specification. *)

(** The trace as {!Trace_intf.S}, with its node record exposed. *)
module Make (M : Onll_machine.Machine_sig.S) = struct
  type ('env, 'state, 'value) node = {
    env : 'env option;  (** [None] only for the sentinel *)
    mutable idx : int;  (** fixed once the node is published *)
    flag : int M.Tvar.t;  (** {!Trace_intf.ordered}, acked or durable *)
    next : ('env, 'state, 'value) link M.Tvar.t;  (** towards older operations *)
    mutable slot : ('state, 'value) Slot.t;
  }

  and ('env, 'state, 'value) link =
    | Older of ('env, 'state, 'value) node
    | Base of int * 'state

  type ('env, 'state, 'value) t = {
    tail : ('env, 'state, 'value) node M.Tvar.t;
    tr_sink : Onll_obs.Sink.t;
  }

  let create ?(sink = Onll_obs.Sink.null) ~base_idx ~base_state () =
    let sentinel =
      {
        env = None;
        idx = base_idx;
        flag = M.Tvar.make Trace_intf.durable;
        next = M.Tvar.make (Base (base_idx, base_state));
        slot = Slot.Empty;
      }
    in
    { tail = M.Tvar.make sentinel; tr_sink = sink }

  (* Listing 2, [insert]: assign the next execution index and CAS the node
     in at the tail. The [idx] and [next] writes happen before publication,
     so they are safe plain writes. *)
  let insert ?budget t env =
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
        flag =
          M.Tvar.make
            (match budget with
            | None -> Trace_intf.ordered
            | Some b -> Trace_intf.ordered_under b);
        next = M.Tvar.make (Older ltail);
        slot = Slot.Empty;
      }
    in
    if M.Tvar.cas t.tail ~expected:ltail ~desired:node then node
    else loop node

  let tail t = M.Tvar.get t.tail
  let idx n = n.idx
  let flag n = M.Tvar.get n.flag
  let is_available n = M.Tvar.get n.flag = Trace_intf.durable
  let set_available n = M.Tvar.set n.flag Trace_intf.durable

  let set_acked n ~budget =
    M.Tvar.cas n.flag ~expected:(Trace_intf.ordered_under budget)
      ~desired:budget

  let is_newest t node = tail t == node

  (* Listing 2, [latestAvailable]: first visible node (acknowledged or
     durable), walking from the given node towards older operations.
     Total: flags only move forward and every chain ends in a visible
     node (the sentinel or a prune point, visible by construction). *)
  let rec latest_available_from node =
    if Trace_intf.visible (M.Tvar.get node.flag) then node
    else
      match M.Tvar.get node.next with
      | Older older -> latest_available_from older
      | Base _ ->
          (* Unreachable: a node whose [next] is a base is visible. *)
          assert false

  (* A node whose state left its slot has newer published (under the
     construction, available) nodes: look again while a newer one shows,
     rather than hand out a node a fold would reach from far below. *)
  let rec settle t node =
    match node.slot with
    | Slot.Published { state = None; _ } ->
        let newer = latest_available_from (tail t) in
        if newer == node then node else settle t newer
    | Slot.Published { state = Some _; _ } | Slot.Empty -> node

  let latest_available t = settle t (latest_available_from (tail t))

  (* Listing 2, [getFuzzyOps]: the envelopes of [node] and of the
     not-yet-durable operations preceding it, newest first, down to the
     first durable node or the base (a node whose [next] is a base at its
     own index is inside it). Indices are contiguous and descending from
     [node.idx]. Bounded by MAX-PROCESSES (Proposition 5.2) plus the
     acknowledged nodes a budget allows, so the list is built on the way
     back, with no reversal. *)
  let rec fuzzy_envs t curr =
    if M.Tvar.get curr.flag = Trace_intf.durable then []
    else
      match M.Tvar.get curr.next with
      | Base (i, _) when i = curr.idx -> []
      | link -> (
          let older =
            match link with Older older -> fuzzy_envs t older | Base _ -> []
          in
          match curr.env with Some e -> e :: older | None -> older)

  (* The same window with each envelope's node. *)
  let fuzzy_nodes _t node =
    let rec walk curr acc =
      if M.Tvar.get curr.flag = Trace_intf.durable then List.rev acc
      else
        match M.Tvar.get curr.next with
        | Base (i, _) when i = curr.idx -> List.rev acc
        | link -> (
            let acc =
              match curr.env with Some e -> (curr, e) :: acc | None -> acc
            in
            match link with
            | Older older -> walk older acc
            | Base _ -> List.rev acc)
    in
    walk node []

  (* The starting state and the (index, envelope) list, oldest first,
     whose application yields the state at [node] inclusive: from the
     newest state published at or below [node], the base's at worst. *)
  let delta_from node =
    let rec walk curr above =
      match (curr.slot, M.Tvar.get curr.next) with
      | Slot.Published { state = Some s; _ }, _ -> (s, above)
      | _, Base (i, s) when i = curr.idx -> (s, above)
      | _, Base (_, s) -> (s, (curr.idx, Option.get curr.env) :: above)
      | _, Older older -> walk older ((curr.idx, Option.get curr.env) :: above)
    in
    walk node []

  (* A walk met a node whose state left its slot: the nodes it passed
     were published since. *)
  exception Passed

  (* §8: the state after [curr], from the newest state published at or
     below it (the base's at worst), publishing each node applied on the
     way back up ({!Slot}); a node a concurrent fold published meanwhile
     lends its state. A [Passed] walk resumes at the newest node it
     passed that holds a state; only a [deep] one folds through. *)
  let rec fold ~deep ~apply curr =
    match curr.slot with
    | Slot.Published { state = Some s; _ } -> s
    | Slot.Published { state = None; _ } when not deep -> raise Passed
    | Slot.Published { state = None; _ } | Slot.Empty -> (
        match M.Tvar.get curr.next with
        | Base (i, s) when i = curr.idx -> s
        | Base (_, s) -> publish ~deep ~apply curr s Slot.Empty
        | Older older ->
            let s =
              try fold ~deep ~apply older
              with Passed -> (
                match older.slot with
                | Slot.Published { state = Some s; _ } -> s
                | Slot.Published { state = None; _ } | Slot.Empty ->
                    raise Passed)
            in
            publish ~deep ~apply curr s older.slot)

  and publish ~deep ~apply curr s below =
    match curr.slot with
    | Slot.Published { state = Some s; _ } -> s
    | Slot.Published { state = None; _ } when not deep -> raise Passed
    | Slot.Published { state = None; _ } -> fst (apply s (Option.get curr.env))
    | Slot.Empty ->
        let s, v = apply s (Option.get curr.env) in
        curr.slot <- Slot.publish ~below s v;
        s

  (* Under the construction a [Passed] walk resumes below its node; one
     that reaches it, or a node whose own state left, folds through. *)
  let state_at _t node ~apply =
    try fold ~deep:false ~apply node with Passed -> fold ~deep:true ~apply node

  let published node = Slot.state node.slot

  (* A node published while the walk was away answers at once. *)
  let rec value_from ~deep node ~apply =
    match Slot.take node.slot with
    | Some v -> v
    | None ->
        (try ignore (fold ~deep ~apply node : _) with Passed -> ());
        value_from ~deep:true node ~apply

  let value_at _t node ~durable:_ ~apply = value_from ~deep:false node ~apply

  (* All reachable nodes, oldest first, for recovery checks and tests. *)
  let to_list t =
    let rec walk curr acc =
      let acc = (curr.idx, M.Tvar.get curr.flag, curr.env) :: acc in
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
     visible (so no latest-available walk can need the pruned prefix, and
     a fuzzy window stops at the base), and a state function to
     materialise the summary. A
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
        | Base _ -> ()
        | Older older -> (
            match M.Tvar.get older.next with
            | Base (i, _) when i = older.idx ->
                ()  (* the base is already at [below - 1] *)
            | Base _ | Older _ ->
                if not (Trace_intf.visible (M.Tvar.get node.flag)) then
                  invalid_arg "Trace.prune: node not yet visible";
                M.Tvar.set node.next (Base (node.idx - 1, state_before older))))

  (* §8 compaction: [node] holds the base itself. Unconditional: on a node
     a deeper prune or rebase already passed, the link is unreachable from
     the tail and only shortens that node's own folds. *)
  let rebase _t node state = M.Tvar.set node.next (Base (node.idx, state))
end
