(** {!Trace_intf.S} view of the paper's lock-free trace (Listing 2). *)

module Backward (M : Onll_machine.Machine_sig.S) :
  Trace_intf.S = struct
  module T = Trace.Make (M)

  type ('env, 'state) t = ('env, 'state) T.t
  type ('env, 'state) node = ('env, 'state) T.node

  let create = T.create
  let insert = T.insert
  let idx n = n.T.idx
  let is_available n = M.Tvar.get n.T.available
  let set_available n = M.Tvar.set n.T.available true
  let latest_available = T.latest_available
  let fuzzy_envs _t node = T.fuzzy_envs node
  let fuzzy_nodes _t node = T.fuzzy_nodes node
  let is_newest t node = T.tail t == node

  let delta_from ?floor _t node =
    let floor =
      match floor with
      | Some (fnode, fstate) when fnode.T.idx <= node.T.idx ->
          Some (fnode.T.idx, fstate)
      | Some _ | None -> None
    in
    T.delta_from ?floor node

  let to_list = T.to_list
  let base_of = T.base_of
  let prune = T.prune
end
