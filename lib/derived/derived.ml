(** Ready-made durable data structures.

    The universal construction works on any {!Onll_core.Spec.S}, but its
    values are spec-level variants ([Taken (Some 3)], [Previous None], ...).
    These wrappers give each stock specification the API you would expect
    from a library type — typed operations, ordinary return types — while
    everything underneath is the same lock-free durably linearizable ONLL
    object: one persistent fence per mutation, none per read, crash
    recovery via [recover], detectability via the underlying construction.

    Every wrapper is a functor over the machine, so the same code runs on
    the simulator (for crash testing) and on native domains. [~wait_free]
    selects the Kogan–Petrank trace variant (§8). *)

open Onll_machine

(* {!Onll_core.Onll.Config.default}, with the caller's log capacity. *)
let config ?log_capacity () =
  let d = Onll_core.Onll.Config.default in
  { d with log_capacity = Option.value log_capacity ~default:d.log_capacity }

module Counter (M : Machine_sig.S) = struct
  module Spec = Onll_specs.Counter
  module Lf = Onll_core.Onll.Make (M) (Spec)
  module Wf = Onll_core.Onll.Make_wait_free (M) (Spec)

  type t = Lf_obj of Lf.t | Wf_obj of Wf.t

  let create ?(wait_free = false) ?log_capacity () =
    let cfg = config ?log_capacity () in
    if wait_free then Wf_obj (Wf.make cfg) else Lf_obj (Lf.make cfg)

  let incr = function
    | Lf_obj o -> Lf.update o Spec.Increment
    | Wf_obj o -> Wf.update o Spec.Increment

  let add t k =
    match t with
    | Lf_obj o -> Lf.update o (Spec.Add k)
    | Wf_obj o -> Wf.update o (Spec.Add k)

  let get = function
    | Lf_obj o -> Lf.read o Spec.Get
    | Wf_obj o -> Wf.read o Spec.Get

  let recover = function Lf_obj o -> Lf.recover o | Wf_obj o -> Wf.recover o

  let checkpoint = function
    | Lf_obj o -> Lf.checkpoint o
    | Wf_obj o -> Wf.checkpoint o
end

module Kv (M : Machine_sig.S) = struct
  module Spec = Onll_specs.Kv
  module C = Onll_core.Onll.Make (M) (Spec)

  type t = C.t

  let create ?log_capacity () = C.make (config ?log_capacity ())

  let put t k v =
    match C.update t (Spec.Put (k, v)) with
    | Spec.Previous prev -> prev
    | Spec.Found _ | Spec.Count _ -> assert false

  let delete t k =
    match C.update t (Spec.Delete k) with
    | Spec.Previous prev -> prev
    | Spec.Found _ | Spec.Count _ -> assert false

  let get t k =
    match C.read t (Spec.Get k) with
    | Spec.Found v -> v
    | Spec.Previous _ | Spec.Count _ -> assert false

  let size t =
    match C.read t Spec.Size with
    | Spec.Count n -> n
    | Spec.Previous _ | Spec.Found _ -> assert false

  let recover = C.recover
  let checkpoint = C.checkpoint
  let was_linearized = C.was_linearized
end

module Queue (M : Machine_sig.S) = struct
  module Spec = Onll_specs.Queue_spec
  module C = Onll_core.Onll.Make (M) (Spec)

  type t = C.t

  let create ?log_capacity () = C.make (config ?log_capacity ())

  let enqueue t x =
    match C.update t (Spec.Enqueue x) with
    | Spec.Nothing -> ()
    | Spec.Taken _ | Spec.Len _ -> assert false

  let dequeue t =
    match C.update t Spec.Dequeue with
    | Spec.Taken v -> v
    | Spec.Nothing | Spec.Len _ -> assert false

  let peek t =
    match C.read t Spec.Peek with
    | Spec.Taken v -> v
    | Spec.Nothing | Spec.Len _ -> assert false

  let length t =
    match C.read t Spec.Length with
    | Spec.Len n -> n
    | Spec.Nothing | Spec.Taken _ -> assert false

  let recover = C.recover
  let checkpoint = C.checkpoint
end

module Stack (M : Machine_sig.S) = struct
  module Spec = Onll_specs.Stack_spec
  module C = Onll_core.Onll.Make (M) (Spec)

  type t = C.t

  let create ?log_capacity () = C.make (config ?log_capacity ())

  let push t x =
    match C.update t (Spec.Push x) with
    | Spec.Nothing -> ()
    | Spec.Taken _ | Spec.Count _ -> assert false

  let pop t =
    match C.update t Spec.Pop with
    | Spec.Taken v -> v
    | Spec.Nothing | Spec.Count _ -> assert false

  let top t =
    match C.read t Spec.Top with
    | Spec.Taken v -> v
    | Spec.Nothing | Spec.Count _ -> assert false

  let depth t =
    match C.read t Spec.Depth with
    | Spec.Count n -> n
    | Spec.Nothing | Spec.Taken _ -> assert false

  let recover = C.recover
end

module Set (M : Machine_sig.S) = struct
  module Spec = Onll_specs.Set_spec
  module C = Onll_core.Onll.Make (M) (Spec)

  type t = C.t

  let create ?log_capacity () = C.make (config ?log_capacity ())

  let insert t x =
    match C.update t (Spec.Insert x) with
    | Spec.Changed b -> b
    | Spec.Member _ | Spec.Count _ -> assert false

  let remove t x =
    match C.update t (Spec.Remove x) with
    | Spec.Changed b -> b
    | Spec.Member _ | Spec.Count _ -> assert false

  let mem t x =
    match C.read t (Spec.Contains x) with
    | Spec.Member b -> b
    | Spec.Changed _ | Spec.Count _ -> assert false

  let cardinal t =
    match C.read t Spec.Cardinal with
    | Spec.Count n -> n
    | Spec.Changed _ | Spec.Member _ -> assert false

  let recover = C.recover
end

module Pqueue (M : Machine_sig.S) = struct
  module Spec = Onll_specs.Pqueue
  module C = Onll_core.Onll.Make (M) (Spec)

  type t = C.t

  let create ?log_capacity () = C.make (config ?log_capacity ())

  let insert t ~prio x =
    match C.update t (Spec.Insert (prio, x)) with
    | Spec.Nothing -> ()
    | Spec.Min _ | Spec.Count _ -> assert false

  let extract_min t =
    match C.update t Spec.Extract_min with
    | Spec.Min v -> v
    | Spec.Nothing | Spec.Count _ -> assert false

  let find_min t =
    match C.read t Spec.Find_min with
    | Spec.Min v -> v
    | Spec.Nothing | Spec.Count _ -> assert false

  let size t =
    match C.read t Spec.Size with
    | Spec.Count n -> n
    | Spec.Nothing | Spec.Min _ -> assert false

  let recover = C.recover
end

module Ledger (M : Machine_sig.S) = struct
  module Spec = Onll_specs.Ledger
  module C = Onll_core.Onll.Make (M) (Spec)

  type t = C.t

  exception Rejected of string

  let create ?log_capacity () = C.make (config ?log_capacity ())

  let lift = function
    | Spec.Ok_v -> Ok ()
    | Spec.Rejected r -> Error r
    | Spec.Amount _ | Spec.Names _ -> assert false

  let open_account t a = lift (C.update t (Spec.Open a))
  let deposit t a n = lift (C.update t (Spec.Deposit (a, n)))
  let withdraw t a n = lift (C.update t (Spec.Withdraw (a, n)))

  let transfer t ~from_ ~to_ n =
    lift (C.update t (Spec.Transfer (from_, to_, n)))

  let balance t a =
    match C.read t (Spec.Balance a) with
    | Spec.Amount v -> v
    | Spec.Ok_v | Spec.Rejected _ | Spec.Names _ -> assert false

  let total t =
    match C.read t Spec.Total with
    | Spec.Amount (Some v) -> v
    | Spec.Amount None | Spec.Ok_v | Spec.Rejected _ | Spec.Names _ ->
        assert false

  let accounts t =
    match C.read t Spec.Accounts with
    | Spec.Names l -> l
    | Spec.Ok_v | Spec.Rejected _ | Spec.Amount _ -> assert false

  let recover = C.recover
  let checkpoint = C.checkpoint
end
