(** Little binary serialization combinators.

    Sequential specifications hand the construction opaque byte strings for
    their operations and checkpointed states; these combinators build such
    codecs without depending on [Marshal] (whose format is not stable and
    whose failure mode on corrupt input is a segfault rather than an error,
    which matters when decoding possibly-torn NVM contents). *)

type 'a t
(** A codec: a value of type ['a] to/from bytes. *)

exception Decode_error of string
(** Raised by [decode] on malformed or truncated input. A length or count
    that claims more bytes than the input holds raises it before anything
    is allocated for them. *)

val encode : 'a t -> 'a -> string
(** The bytes of a value, written into 64 KiB chunks and copied once
    into the result. The calling domain keeps its chunks from one encode
    to the next (as many as its longest encoding filled, per depth of
    encodes nested in a codec's write), so an encode allocates its result,
    one small record and only the chunks its domain never had. *)

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
(** 63-bit OCaml int, 8 bytes little-endian. An int64 outside the int
    range is a {!Decode_error}, so every decodable input is the
    encoding of what it decodes to; the same holds for the lengths and
    counts below. *)

val int32 : int32 t
val int64 : int64 t
val float : float t
val char : char t

val string : string t
(** Length-prefixed. A string whose length and body fit in the encode's
    current chunk is written in one step. *)

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

val skip : unit t
(** Reads the rest of the enclosing variant body (or of the input) and
    writes nothing: the last field of a codec that reads a prefix of a
    value, such as a key, without decoding the remainder. *)

(** {1 Variants}

    The frame of a variant value is its case's tag as an int64 (LE), the
    body's length in bytes as an int64 (LE), and the body, which is the
    case's codec's encoding. The body is written once, straight into the
    output (its length is filled in after it), and decoded where it
    lies; its decoder must consume exactly its length. This is the frame
    of every specification update, every wire message and every record
    in the logs. *)

type ('a, 'b) case
(** One case of a variant of ['a]: a tag and a codec for its body ['b]. *)

val case : int -> 'b t -> ('b -> 'a) -> ('a, 'b) case
(** [case tag body inj]: the case [tag], whose body decodes through
    [body] and is turned into the variant's value by [inj].
    @raise Invalid_argument on a negative tag. *)

val const : int -> 'a -> ('a, unit) case
(** A case without a body, decoding to the given value. *)

type 'a any_case = Case : ('a, 'b) case -> 'a any_case
type 'a choice = Is : ('a, 'b) case * 'b -> 'a choice

val variant : string -> 'a any_case list -> ('a -> 'a choice) -> 'a t
(** [variant name cases choose]: encoding [v] writes the case and body
    [choose v] names. Decoding a tag no case has raises {!Decode_error}
    (with [name] in its message).
    @raise Invalid_argument if two cases share a tag. *)

val bindings :
  iter:(('k -> 'v -> unit) -> 'm -> unit) ->
  of_reader:(int -> key:(unit -> 'k) -> value:(unit -> 'v) -> 'm) ->
  'k t ->
  'v t ->
  'm t
(** A map as its bindings in key order: the bytes [list (pair key value)]
    writes for them, written in one walk of [iter]. The count comes
    first in those bytes; it is written as a placeholder and filled in
    once the walk is done, so the map is never counted apart. Decoding
    hands [of_reader] the count and two readers, which it calls [key]
    then [value] for each binding, in input order. A count the remaining
    input cannot hold raises {!Decode_error} before anything is
    allocated for it. {!Ordered_map.S.codec} is this codec. *)

(** {1 Reading in place} *)

val decode_range : 'a t -> string -> pos:int -> stop:int -> 'a
(** [decode] of the range [pos, stop) of [s], read where it lies: nothing
    at or past [stop] is read, and bytes left before [stop] are a
    {!Decode_error}.
    @raise Invalid_argument if the range lies outside [s]. *)
