(** Persistent ordered maps: the durable map-shaped states ([Kv],
    [Ledger], the client table) and their checkpoint codec.

    The operations below are Stdlib [Map]'s, with its AVL algorithm: each
    gives the result [Map.Make (Ord)] gives. What this module adds is a
    bottom-up build from sorted bindings, which allocates one node per
    binding and nothing else, and the codec that decodes a checkpointed
    map through it. *)

module type S = sig
  type key
  type +'a t

  val empty : 'a t
  val mem : key -> 'a t -> bool
  val find_opt : key -> 'a t -> 'a option
  val add : key -> 'a -> 'a t -> 'a t

  val update : key -> ('a option -> 'a option) -> 'a t -> 'a t
  (** [update k f m] binds [k] to [f]'s answer for its current binding,
      or removes it when [f] answers [None]. *)

  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  val bindings : 'a t -> (key * 'a) list
  val cardinal : 'a t -> int
  val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool

  val of_arrays : key array -> 'a array -> 'a t
  (** [of_arrays keys values] binds [keys.(i)] to [values.(i)]. Strictly
      increasing keys are built in place, one node per binding, as the
      decoder builds them; any other input gives what adding the
      bindings in order gives, the last binding of a key winning.
      @raise Invalid_argument if the arrays differ in length. *)

  val codec : key Codec.t -> 'a Codec.t -> 'a t Codec.t
  (** The map as its bindings in key order, through {!Codec.bindings}:
      the bytes [list (pair key value)] writes for [bindings m]. *)

  val invariant : 'a t -> bool
  (** Keys strictly increase in order, every stored height is its
      subtree's, and sibling heights differ by at most 2. *)
end

module Make (Ord : Map.OrderedType) : S with type key = Ord.t
