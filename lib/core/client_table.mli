(** A client table around a sequential specification: exactly-once
    updates from the object's own state.

    The state is the inner object's state plus an immutable map
    [client -> last applied seq]. A {e tracked} update [(client, seq, op)]
    applies [op] and records [seq] in the same [apply]; when [seq] is not
    above the client's recorded one it changes nothing and answers
    {!value.Duplicate}. Because the table is part of the state, it is
    durable wherever the object is — in the log record of each update,
    in every checkpoint, and in every recovery — so an exactly-once
    update costs the object's one persistent fence (Theorems 5.1 and 6.3)
    and nothing else, and a client's fate after a crash is one fence-free
    read of its entry.

    Routing keeps the inner specification's: a tracked update goes to the
    shard its inner operation goes to, and the table read {!read_op.Last}
    is a global read whose per-shard answers merge by [max], so a sharded
    object answers correctly whatever the inner routing. *)

module Make (S : Spec.S) : sig
  module Clients : Onll_util.Ordered_map.S with type key = int

  type state = { inner : S.state; last : int Clients.t }

  type update_op =
    | Tracked of { client : int; seq : int; op : S.update_op }
        (** applied at most once per [(client, seq)]; [seq]s of one
            client must rise *)
    | Untracked of S.update_op  (** applied, recorded nowhere *)

  type read_op =
    | Inner of S.read_op
    | Last of int  (** the client's last applied seq *)

  type value =
    | Value of S.value  (** an applied update's, or an inner read's *)
    | Duplicate  (** a tracked update at or below its client's seq *)
    | Last_seq of int option  (** [None]: the client never applied one *)

  include
    Spec.S
      with type state := state
       and type update_op := update_op
       and type read_op := read_op
       and type value := value

  val checkpoint_bytes : clients:int -> int
  (** An upper bound on the table's share of an encoded state holding
      [clients] entries. *)
end
