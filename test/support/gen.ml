(** Seeded operation generators for each specification, for fuzz drivers and
    benchmarks. All draw from a {!Onll_util.Splitmix.t}, so workloads are
    reproducible. *)

open Onll_util

module Counter = struct
  open Onll_specs.Counter

  let update rng =
    if Splitmix.bool rng then Increment else Add (1 + Splitmix.int rng 9)

  let read _rng = Get
end

module Register = struct
  open Onll_specs.Register

  let update rng = Write (Splitmix.int rng 1000)
  let read _rng = Read
end

module Queue = struct
  open Onll_specs.Queue_spec

  let update rng =
    if Splitmix.int rng 3 = 0 then Dequeue else Enqueue (Splitmix.int rng 100)

  let read rng = if Splitmix.bool rng then Peek else Length
end

module Stack = struct
  open Onll_specs.Stack_spec

  let update rng =
    if Splitmix.int rng 3 = 0 then Pop else Push (Splitmix.int rng 100)

  let read rng = if Splitmix.bool rng then Top else Depth
end

module Kv = struct
  open Onll_specs.Kv

  let keys = [| "a"; "b"; "c"; "d" |]
  let key rng = keys.(Splitmix.int rng (Array.length keys))

  let update rng =
    if Splitmix.int rng 4 = 0 then Delete (key rng)
    else Put (key rng, Printf.sprintf "v%d" (Splitmix.int rng 50))

  let read rng = if Splitmix.int rng 4 = 0 then Size else Get (key rng)
end

module Set_g = struct
  open Onll_specs.Set_spec

  let update rng =
    let x = Splitmix.int rng 20 in
    if Splitmix.bool rng then Insert x else Remove x

  let read rng =
    if Splitmix.int rng 4 = 0 then Cardinal else Contains (Splitmix.int rng 20)
end

module Ledger = struct
  open Onll_specs.Ledger

  let accounts = [| "alice"; "bob"; "carol" |]
  let account rng = accounts.(Splitmix.int rng (Array.length accounts))

  let update rng =
    match Splitmix.int rng 5 with
    | 0 -> Open (account rng)
    | 1 | 2 -> Deposit (account rng, 1 + Splitmix.int rng 100)
    | 3 -> Withdraw (account rng, 1 + Splitmix.int rng 100)
    | _ -> Transfer (account rng, account rng, 1 + Splitmix.int rng 50)

  let read rng =
    match Splitmix.int rng 3 with
    | 0 -> Total
    | 1 -> Accounts
    | _ -> Balance (account rng)
end

module Pqueue = struct
  open Onll_specs.Pqueue

  let update rng =
    if Splitmix.int rng 3 = 0 then Extract_min
    else Insert (Splitmix.int rng 10, Splitmix.int rng 100)

  let read rng = if Splitmix.bool rng then Find_min else Size
end

module Deque = struct
  open Onll_specs.Deque

  let update rng =
    match Splitmix.int rng 4 with
    | 0 -> Push_front (Splitmix.int rng 100)
    | 1 -> Push_back (Splitmix.int rng 100)
    | 2 -> Pop_front
    | _ -> Pop_back

  let read rng =
    match Splitmix.int rng 3 with 0 -> Front | 1 -> Back | _ -> Length
end

(** A specification with its generators, for drivers that pick one by
    name. *)
module type S = sig
  module Spec : Onll_core.Spec.S

  val update : Splitmix.t -> Spec.update_op
  val read : Splitmix.t -> Spec.read_op
end

let pack (type u r)
    (module Spec : Onll_core.Spec.S
      with type update_op = u
       and type read_op = r) update read =
  (module struct
    module Spec = Spec

    let update = update
    let read = read
  end : S)

let by_name =
  [
    ("counter", pack (module Onll_specs.Counter) Counter.update Counter.read);
    ( "register",
      pack (module Onll_specs.Register) Register.update Register.read );
    ("queue", pack (module Onll_specs.Queue_spec) Queue.update Queue.read);
    ("kv", pack (module Onll_specs.Kv) Kv.update Kv.read);
    ("stack", pack (module Onll_specs.Stack_spec) Stack.update Stack.read);
    ("set", pack (module Onll_specs.Set_spec) Set_g.update Set_g.read);
    ("ledger", pack (module Onll_specs.Ledger) Ledger.update Ledger.read);
  ]
