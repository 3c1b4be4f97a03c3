(** Ready-made durable data structures: typed wrappers over ONLL objects.

    Each functor instantiates the universal construction on a stock
    specification and exposes the operations with ordinary OCaml types
    instead of spec-level variants. Underneath, every mutation is a
    lock-free durably linearizable ONLL update (one persistent fence, crash
    recovery via [recover]); every read is fence-free. The wrappers work on
    both machines — the simulator for crash testing, native domains for
    performance. *)

open Onll_machine

(** A durable counter; [~wait_free] selects the Kogan–Petrank trace (§8). *)
module Counter (M : Machine_sig.S) : sig
  type t

  val create :
    ?wait_free:bool -> ?log_capacity:int -> unit -> t

  val incr : t -> int
  (** Increment; returns the new value. *)

  val add : t -> int -> int
  val get : t -> int
  val recover : t -> unit
  val checkpoint : t -> int
end

(** A durable string key-value store with replay-detectable writes. *)
module Kv (M : Machine_sig.S) : sig
  type t

  val create : ?log_capacity:int -> unit -> t

  val put : t -> string -> string -> string option
  (** Returns the previous binding. *)

  val delete : t -> string -> string option
  val get : t -> string -> string option
  val size : t -> int
  val recover : t -> unit
  val checkpoint : t -> int
  val was_linearized : t -> Onll_core.Onll.op_id -> bool
end

(** A durable FIFO queue. *)
module Queue (M : Machine_sig.S) : sig
  type t

  val create : ?log_capacity:int -> unit -> t
  val enqueue : t -> int -> unit
  val dequeue : t -> int option
  val peek : t -> int option
  val length : t -> int
  val recover : t -> unit
  val checkpoint : t -> int
end

(** A durable LIFO stack. *)
module Stack (M : Machine_sig.S) : sig
  type t

  val create : ?log_capacity:int -> unit -> t
  val push : t -> int -> unit
  val pop : t -> int option
  val top : t -> int option
  val depth : t -> int
  val recover : t -> unit
end

(** A durable integer set. *)
module Set (M : Machine_sig.S) : sig
  type t

  val create : ?log_capacity:int -> unit -> t

  val insert : t -> int -> bool
  (** True iff the element was new. *)

  val remove : t -> int -> bool
  val mem : t -> int -> bool
  val cardinal : t -> int
  val recover : t -> unit
end

(** A durable min-priority queue of (priority, payload) pairs. *)
module Pqueue (M : Machine_sig.S) : sig
  type t

  val create : ?log_capacity:int -> unit -> t
  val insert : t -> prio:int -> int -> unit
  val extract_min : t -> (int * int) option
  val find_min : t -> (int * int) option
  val size : t -> int
  val recover : t -> unit
end

(** A durable bank ledger with crash-consistent transfers. Mutations return
    [Error reason] when the sequential specification rejects them
    (unknown account, insufficient funds, ...). *)
module Ledger (M : Machine_sig.S) : sig
  type t

  exception Rejected of string

  val create : ?log_capacity:int -> unit -> t
  val open_account : t -> string -> (unit, string) result
  val deposit : t -> string -> int -> (unit, string) result
  val withdraw : t -> string -> int -> (unit, string) result
  val transfer : t -> from_:string -> to_:string -> int -> (unit, string) result
  val balance : t -> string -> int option
  val total : t -> int
  val accounts : t -> string list
  val recover : t -> unit
  val checkpoint : t -> int
end
