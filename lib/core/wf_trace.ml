(** Wait-free execution trace, after Kogan & Petrank (PPoPP'11).

    The paper's §8 observes that the only non-wait-free component of ONLL
    is the transient execution trace and that a wait-free queue construction
    yields a wait-free ONLL. This module is that trace: a forward-linked
    Michael–Scott structure whose insertion uses phase-numbered
    announcements with helping — every insert completes within a bounded
    number of the {e caller's} own steps, because any process that finishes
    an insertion first helps all announced insertions with lower-or-equal
    phases.

    Differences from the backward trace dictated by wait-freedom:
    {ul
    {- links point {e forward} (insertion is a CAS on the last cell's [next]
       from [Null], which helpers can perform for a stalled announcer
       without the write-after-publication races a backward [next] would
       need);}
    {- traversals therefore start from an older {e durable} cell and walk
       forward. The trace keeps a per-process cursor (the durable cell
       that process last computed a state at) so steady-state scans cover
       only the delta, and a fold finds the newest published state (see
       {!Slot}) scanning forward from it; execution indices are
       recomputed while walking, because a cell's stored index is only
       guaranteed once the cell is visible (or owned by the caller);}
    {- pruning (§8) installs a new {e base}: a fresh sentinel at
       [below - 1], linked forward to the cell at [below] and carrying the
       state before it. Nothing is unlinked — the garbage collector is the
       safe memory reclamation — so helpers, stale cursors and parked
       announcers can still walk forward from whatever cells they hold.
       Two rules make that correct and bounded. A node handed to a caller
       ([insert], [latest_available]) carries the base read {e before} its
       cell was obtained, and [state_at] falls back on the newer of the
       current base and that one, so a cell a prune passed stays
       computable while no base ever links to an older one. And nothing
       the trace keeps per process pins an old cell: a finished request
       slot drops its cell, and a prune clamps every cursor below the new
       base to it.}} *)

module Make (M : Onll_machine.Machine_sig.S) : Trace_intf.S = struct
  type ('env, 'state, 'value) cell = {
    env : 'env option;  (* None only for a base sentinel *)
    mutable idx : int;
        (* written (with the same value) by every finishing helper, before
           the owner's announcement is released *)
    flag : int M.Tvar.t;  (* Trace_intf.ordered, acked or durable *)
    next : ('env, 'state, 'value) link M.Tvar.t;  (* towards NEWER operations *)
    owner : int;  (* announcing process, for claim resolution *)
    mutable slot : ('state, 'value) Slot.t;
  }

  and ('env, 'state, 'value) link = Null | Node of ('env, 'state, 'value) cell

  (* A sentinel and the object state after the operations up to its
     index; every cell after it links forward from it. *)
  type ('env, 'state, 'value) base = {
    b_cell : ('env, 'state, 'value) cell;
    b_state : 'state;
  }

  (* A cell with the base that was current before the caller obtained it,
     so the cell stays computable after a prune passes it. Only callers
     hold nodes: no base is reachable from another. *)
  type ('env, 'state, 'value) node = {
    cell : ('env, 'state, 'value) cell;
    n_base : ('env, 'state, 'value) base;
  }

  (* A pending insertion request (Kogan–Petrank "operation descriptor").
     Slots are replaced wholesale and compared physically by CAS. *)
  type ('env, 'state, 'value) desc = {
    phase : int;
    req : ('env, 'state, 'value) cell option;
    pending : bool;
  }

  type ('env, 'state, 'value) t = {
    base : ('env, 'state, 'value) base M.Tvar.t;  (* moves forward only *)
    tail : ('env, 'state, 'value) cell M.Tvar.t;  (* may lag by one link *)
    state : ('env, 'state, 'value) desc M.Tvar.t array;  (* per process *)
    cursors : ('env, 'state, 'value) cell array;
        (* per process: the durable cell it last computed a state at (or
           a base): a window scan starts there, so it is never a cell
           that is only acknowledged; written by its owner and clamped by
           prunes *)
    sink : Onll_obs.Sink.t;
  }

  let sentinel idx next =
    {
      env = None;
      idx;
      flag = M.Tvar.make Trace_intf.durable;
      next = M.Tvar.make next;
      owner = -1;
      slot = Slot.Empty;
    }

  let create ?(sink = Onll_obs.Sink.null) ~base_idx ~base_state () =
    let head = sentinel base_idx Null in
    {
      base = M.Tvar.make { b_cell = head; b_state = base_state };
      tail = M.Tvar.make head;
      state =
        Array.init M.max_processes (fun _ ->
            M.Tvar.make { phase = 0; req = None; pending = false });
      cursors = Array.make M.max_processes head;
      sink;
    }

  let idx n = n.cell.idx
  let flag n = M.Tvar.get n.cell.flag
  let is_available n = M.Tvar.get n.cell.flag = Trace_intf.durable
  let set_available n = M.Tvar.set n.cell.flag Trace_intf.durable

  let set_acked n ~budget =
    M.Tvar.cas n.cell.flag ~expected:(Trace_intf.ordered_under budget)
      ~desired:budget

  (* {2 Kogan–Petrank insertion} *)

  let max_phase t =
    let m = ref 0 in
    Array.iter
      (fun slot ->
        let d = M.Tvar.get slot in
        if d.phase > !m then m := d.phase)
      t.state;
    !m

  let is_pending t q phase =
    let d = M.Tvar.get t.state.(q) in
    d.pending && d.phase <= phase

  (* Complete the link at the tail: fix the new cell's index, release its
     owner's announcement, swing the tail. All three writes are idempotent
     or CAS-guarded, so any number of helpers may run this concurrently. *)
  let help_finish t =
    let last = M.Tvar.get t.tail in
    match M.Tvar.get last.next with
    | Null -> ()
    | Node cell ->
        cell.idx <- last.idx + 1;
        let q = cell.owner in
        if q >= 0 then begin
          let d = M.Tvar.get t.state.(q) in
          match d.req with
          | Some c when c == cell && d.pending ->
              ignore
                (M.Tvar.cas t.state.(q) ~expected:d
                   ~desired:{ d with pending = false })
          | Some _ | None -> ()
        end;
        ignore (M.Tvar.cas t.tail ~expected:last ~desired:cell)

  let help_insert t q phase =
    let continue_ = ref (is_pending t q phase) in
    while !continue_ do
      let last = M.Tvar.get t.tail in
      let next = M.Tvar.get last.next in
      if last == M.Tvar.get t.tail then begin
        match next with
        | Null ->
            if is_pending t q phase then begin
              let d = M.Tvar.get t.state.(q) in
              match d.req with
              | Some cell when d.pending ->
                  if M.Tvar.cas last.next ~expected:Null ~desired:(Node cell)
                  then begin
                    help_finish t;
                    continue_ := false
                  end
                  else if Onll_obs.Sink.active t.sink then
                    Onll_obs.Sink.emit t.sink ~proc:(M.self ())
                      (Onll_obs.Event.Cas_retry { site = "wf_trace.insert" })
              | Some _ | None -> ()
            end
        | Node _ -> help_finish t
      end;
      if !continue_ then continue_ := is_pending t q phase
    done

  let help t phase =
    let p = M.self () in
    let helped = ref 0 in
    for q = 0 to Array.length t.state - 1 do
      if is_pending t q phase then begin
        if q <> p then incr helped;
        help_insert t q phase
      end
    done;
    if !helped > 0 && Onll_obs.Sink.active t.sink then
      Onll_obs.Sink.emit t.sink ~proc:p
        (Onll_obs.Event.Help { helped = !helped })

  let insert ?budget t env =
    let p = M.self () in
    let n_base = M.Tvar.get t.base in
    let cell =
      {
        env = Some env;
        idx = 0;
        flag =
          M.Tvar.make
            (match budget with
            | None -> Trace_intf.ordered
            | Some b -> Trace_intf.ordered_under b);
        next = M.Tvar.make Null;
        owner = p;
        slot = Slot.Empty;
      }
    in
    let phase = max_phase t + 1 in
    M.Tvar.set t.state.(p) { phase; req = Some cell; pending = true };
    help t phase;
    help_finish t;
    (* pending = false implies help_finish assigned our index; the slot
       drops the cell, which would otherwise pin every newer one for as
       long as this process stays idle *)
    M.Tvar.set t.state.(p) { phase; req = None; pending = false };
    { cell; n_base }

  (* {2 Forward traversals}

     All scans start from a durable cell (a per-process cursor or a base)
     and recompute indices while walking, so they never read the mutable
     [idx] of a cell that is not yet finished. *)

  (* Fold [f] over the cells strictly after [start], oldest first, carrying
     the running index. *)
  let fold_forward start start_idx ~init ~f =
    let rec go curr curr_idx acc =
      match M.Tvar.get curr.next with
      | Null -> acc
      | Node n ->
          let n_idx = curr_idx + 1 in
          go n n_idx (f acc n n_idx)
    in
    go start start_idx init

  (* The caller's scan start: its cursor (always a durable cell or a
     base), clamped to [base]. *)
  let cursor t base =
    let c = t.cursors.(M.self ()) in
    if c.idx < base.b_cell.idx then base.b_cell else c

  let advance_cursor t cell =
    let p = M.self () in
    if cell.idx > t.cursors.(p).idx then t.cursors.(p) <- cell

  let newest_available t =
    let n_base = M.Tvar.get t.base in
    let start = cursor t n_base in
    let best =
      fold_forward start start.idx ~init:start ~f:(fun best n _ ->
          if Trace_intf.visible (M.Tvar.get n.flag) then n else best)
    in
    { cell = best; n_base }

  (* As on the lock-free trace: look again while a newer one shows. *)
  let rec settle t node =
    match node.cell.slot with
    | Slot.Published { state = None; _ } ->
        let newer = newest_available t in
        if newer.cell == node.cell then node else settle t newer
    | Slot.Published { state = Some _; _ } | Slot.Empty -> node

  let latest_available t = settle t (newest_available t)

  (* The cells after the newest durable one at or below [node], up to
     [node], newest first with their indices. *)
  let window t node =
    let node = node.cell and start = cursor t node.n_base in
    let _, suffix_rev =
      fold_forward start start.idx ~init:(start, [])
        ~f:(fun (last_avail, suffix) n n_idx ->
          if n_idx > node.idx then (last_avail, suffix)
          else if M.Tvar.get n.flag = Trace_intf.durable then (n, [])
          else (last_avail, (n_idx, n) :: suffix))
    in
    suffix_rev

  let env n = match n.env with Some e -> e | None -> assert false

  (* An empty window is shielded: some durable cell at or above the
     node already covers the prefix, so the node persists just itself
     (contiguity trivially holds). *)
  let fuzzy_envs t node =
    match window t node with
    | [] -> [ env node.cell ]
    | suffix -> List.map (fun (_, n) -> env n) suffix

  let fuzzy_nodes t node =
    match window t node with
    | [] -> [ (node, env node.cell) ]
    | suffix ->
        List.map
          (fun (_, n) -> ({ cell = n; n_base = node.n_base }, env n))
          suffix

  (* A cell links forward once a newer one is inserted after it. *)
  let is_newest _t node =
    match M.Tvar.get node.cell.next with Null -> true | Node _ -> false

  (* The newest published state at or below [node]'s cell, the slot
     holding it, and the cells above it up to the target, oldest first.
     The scan starts at the caller's cursor, its last fold's target: when
     the target is unpublished, nothing above it is, so the cursor lies at
     or below the newest published cell. Else (a cursor above the target
     or on a base, or a race that left nothing published on the way) it
     starts at the newer of the current base and the node's own. *)
  let start_of t node =
    let target = node.cell in
    let rec scan curr state below above =
      match M.Tvar.get curr.next with
      | Null -> assert false (* [target] lies ahead *)
      | Node n -> (
          let state, below, above =
            match n.slot with
            | Slot.Published { state = Some s; _ } as p -> (Some s, p, [])
            | Slot.Published { state = None; _ } | Slot.Empty ->
                (state, below, n :: above)
          in
          if n != target then scan n state below above
          else Option.map (fun s -> (s, below, List.rev above)) state)
    in
    let from_base () =
      let cur = M.Tvar.get t.base and own = node.n_base in
      let b =
        if cur.b_cell == target || cur.b_cell.idx < target.idx
           && cur.b_cell.idx > own.b_cell.idx
        then cur
        else own
      in
      if b.b_cell == target then (b.b_state, Slot.Empty, [])
      else Option.get (scan b.b_cell (Some b.b_state) Slot.Empty [])
    in
    let c = cursor t node.n_base in
    if c.env = None || c.idx >= target.idx then from_base ()
    else
      match scan c (Slot.state c.slot) c.slot [] with
      | Some start -> start
      | None -> from_base ()

  let slot n = n.slot
  let set n p = n.slot <- p
  let env n = Option.get n.env

  (* The caller's cursor moves to a durable target: the next fold and
     scan start there. *)
  let state_at t node ~apply =
    let target = node.cell in
    let state =
      match target.slot with
      | Slot.Published { state = Some s; _ } -> s
      | Slot.Published { state = None; _ } | Slot.Empty ->
          let s, below, above = start_of t node in
          Slot.replay ~slot ~set ~env ~apply s below above
    in
    if M.Tvar.get target.flag = Trace_intf.durable then
      advance_cursor t target;
    state

  let published node = Slot.state node.cell.slot

  let value_at t node ~durable ~apply =
    if node.cell.slot == Slot.Empty then ignore (state_at t node ~apply)
    else if durable then advance_cursor t node.cell;
    Option.get (Slot.take node.cell.slot)

  let to_list t =
    let b = (M.Tvar.get t.base).b_cell in
    fold_forward b b.idx
      ~init:[ (b.idx, M.Tvar.get b.flag, b.env) ]
      ~f:(fun acc n n_idx -> (n_idx, M.Tvar.get n.flag, n.env) :: acc)
    |> List.rev

  let base_of t =
    let b = M.Tvar.get t.base in
    (b.b_cell.idx, b.b_state)

  (* Move the base up to [make b] (from the current base [b]) unless it
     already lies at or past [idx], the new base's index; cursors below
     the new base are clamped to it. *)
  let rec move_base t idx make =
    let b = M.Tvar.get t.base in
    if idx > b.b_cell.idx then begin
      let nb = make b in
      if M.Tvar.cas t.base ~expected:b ~desired:nb then
        Array.iteri
          (fun q c -> if c.idx < idx then t.cursors.(q) <- nb.b_cell)
          t.cursors
      else move_base t idx make
    end

  (* §8 pruning: a new base at [below - 1] whose sentinel links to the
     cell at [below], which must exist and be visible. A prune at or
     below the current base is a no-op (a deeper concurrent one got
     there first). *)
  let prune t ~below ~state_before =
    move_base t (below - 1) (fun b ->
        (* the cells at [below - 1] and [below] *)
        let rec find curr curr_idx =
          match M.Tvar.get curr.next with
          | Null -> invalid_arg "Wf_trace.prune: no node at index"
          | Node n when curr_idx + 1 = below -> (curr, n)
          | Node n -> find n (curr_idx + 1)
        in
        let before, at = find b.b_cell b.b_cell.idx in
        if not (Trace_intf.visible (M.Tvar.get at.flag)) then
          invalid_arg "Wf_trace.prune: node not yet visible";
        let b_state = state_before { cell = before; n_base = b } in
        { b_cell = sentinel (below - 1) (Node at); b_state })

  (* §8 compaction: the base is the visible cell itself. *)
  let rebase t node b_state =
    move_base t node.cell.idx (fun _ -> { b_cell = node.cell; b_state })
end
