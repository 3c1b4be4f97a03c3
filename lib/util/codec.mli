(** Little binary serialization combinators.

    Sequential specifications hand the construction opaque byte strings for
    their operations and checkpointed states; these combinators build such
    codecs without depending on [Marshal] (whose format is not stable and
    whose failure mode on corrupt input is a segfault rather than an error,
    which matters when decoding possibly-torn NVM contents). *)

type 'a t
(** A codec: a value of type ['a] to/from bytes. *)

exception Decode_error of string
(** Raised by [decode]/readers on malformed or truncated input. *)

val encode : 'a t -> 'a -> string
val decode : 'a t -> string -> 'a
(** [decode c s] decodes [s] entirely; trailing bytes are a
    {!Decode_error}. *)

val decode_tolerant : 'a t -> failures:int ref -> string list -> 'a list
(** [decode] each string, dropping those that fail and counting them in
    [failures]: recovery's reading of CRC-valid log payloads. *)

(** {1 Primitives} *)

val unit : unit t
val bool : bool t

val int : int t
(** 63-bit OCaml int, 8 bytes little-endian. *)

val int32 : int32 t
val int64 : int64 t
val float : float t
val char : char t

val string : string t
(** Length-prefixed. *)

(** {1 Combinators} *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val list : 'a t -> 'a list t
val array : 'a t -> 'a array t
(** The same bytes as [list]. Decoding reads the elements straight into
    the array. A count the remaining input cannot hold raises
    {!Decode_error} before anything is allocated for it (as it does for
    [list]); only an element that takes no input, such as [unit], is
    exempt. *)

val option : 'a t -> 'a option t

val map : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t
(** [map of_a to_a c] converts codec [c] via an isomorphism:
    [of_a] decodes, [to_a] encodes. *)

val tagged : ('a -> int * string) -> (int -> string -> 'a) -> 'a t
(** [tagged to_tag of_tag] builds a variant codec: [to_tag v] yields a
    constructor tag and an encoded payload; [of_tag tag payload] rebuilds the
    value (raising {!Decode_error} on an unknown tag). *)

val tagged_in_place :
  ('a -> int * string) -> (int -> string -> pos:int -> stop:int -> 'a) -> 'a t
(** The bytes {!tagged} writes, decoded without copying the body:
    [of_body tag s ~pos ~stop] rebuilds the value from the body lying at
    [pos, stop) of [s], typically with {!decode_range}. *)

val bindings :
  cardinal:('m -> int) ->
  iter:(('k -> 'v -> unit) -> 'm -> unit) ->
  of_arrays:('k array -> 'v array -> 'm) ->
  'k t ->
  'v t ->
  'm t
(** A map as its bindings in key order: the bytes [list (pair key value)]
    writes for them, written straight from [iter]. Decoding reads the
    keys and the values into two arrays, in input order, and hands them
    to [of_arrays]. A count the remaining input cannot hold raises
    {!Decode_error} before anything is allocated for it.
    {!Ordered_map.S.codec} is this codec. *)

(** {1 Low-level interface for incremental encoding} *)

val write : 'a t -> Buffer.t -> 'a -> unit
val read : 'a t -> ?stop:int -> string -> pos:int -> 'a * int
(** [read c ?stop s ~pos] decodes at offset [pos], returning the value and
    the offset one past its encoding. It reads nothing at or past [stop]
    (default: the end of [s]): an encoding that would run past it raises
    {!Decode_error}, and so does a length or count that claims more bytes
    than lie before it, before anything is allocated for them.
    @raise Invalid_argument if [stop] is past the end of [s]. *)

val decode_range : 'a t -> string -> pos:int -> stop:int -> 'a
(** [decode] of the range [pos, stop) of [s], read where it lies:
    bytes left before [stop] are a {!Decode_error}.
    @raise Invalid_argument if [stop] is past the end of [s]. *)
