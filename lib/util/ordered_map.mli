(** Persistent ordered maps: the durable map-shaped states ([Kv],
    [Ledger], the client table) and their checkpoint codec.

    A map is a qp-trie over an order-preserving byte view of its keys: a
    string is its bytes as they are, an int the 8 big-endian bytes of its
    64-bit two's complement with the sign bit flipped. A branch splits
    its keys 16 ways on one nibble of that view (17, counting the end of a
    shorter key, which orders it first), holds its children in one block
    indexed by the bitmap of the nibbles present, and skips the nibbles
    all its keys share. A lookup reads one nibble per branch and compares
    the key once, at the leaf, so a 200k-key map costs about 5 blocks per
    lookup where a balanced binary tree costs 18 key comparisons, each a
    dereference of a separate key string. A B-tree does not help: each
    step of its in-node search still dereferences a key.

    The bindings iterate in the keys' order, so a map encodes as the
    bindings of Stdlib [Map] would, and the operations below give the
    answers [Map.Make]'s give. One set of keys has one trie, whatever
    order it was built in. [of_reader], the decoder's build, makes the
    trie bottom-up from sorted bindings: one leaf per binding and each
    branch once. *)

(** A key's byte view, read one nibble at a time. *)
module type Key = sig
  type t

  val equal : t -> t -> bool

  val nibble : t -> int -> int
  (** [nibble k i] is 0 past [k]'s last byte, else 1 plus the [i]th
      nibble of [k]'s view (the high nibble of byte [i / 2] first).
      Ordering keys by their nibbles, first difference first, orders
      them as [compare] does. *)

  val diff : t -> t -> int
  (** Where two keys part: -1 when they are equal, else
      [(i lsl 10) lor (nibble a i lsl 5) lor nibble b i] for the first
      nibble index [i] at which [diff a b]'s keys differ, so one call
      gives the index and both nibbles there. *)
end

module String_key : Key with type t = string
module Int_key : Key with type t = int

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
      increasing keys are built bottom-up, as the decoder builds them;
      any other input gives what adding the bindings in order gives, the
      last binding of a key winning.
      @raise Invalid_argument if the arrays differ in length. *)

  val codec : key Codec.t -> 'a Codec.t -> 'a t Codec.t
  (** The map as its bindings in key order, through {!Codec.bindings}:
      the bytes [list (pair key value)] writes for [bindings m]. *)

  val invariant : 'a t -> bool
  (** Every branch splits on a nibble deeper than its parent's, has at
      least two children, one per nibble its bitmap holds, whose keys take
      that nibble, and its keys agree on every nibble before it. *)
end

module Make (K : Key) : S with type key = K.t
