(* A client table around a specification (see client_table.mli). *)

module Codec = Onll_util.Codec

module Make (S : Spec.S) = struct
  module Clients = Onll_util.Ordered_map.Make (Onll_util.Ordered_map.Int_key)

  type state = { inner : S.state; last : int Clients.t }

  type update_op =
    | Tracked of { client : int; seq : int; op : S.update_op }
    | Untracked of S.update_op

  type read_op = Inner of S.read_op | Last of int

  type value =
    | Value of S.value
    | Duplicate
    | Last_seq of int option

  (* the inner name keeps the object's region names *)
  let name = S.name
  let initial = { inner = S.initial; last = Clients.empty }

  let apply st = function
    | Untracked op ->
        let inner, v = S.apply st.inner op in
        ({ st with inner }, Value v)
    | Tracked { client; seq; op } -> (
        match Clients.find_opt client st.last with
        | Some l when seq <= l -> (st, Duplicate)
        | _ ->
            let inner, v = S.apply st.inner op in
            ({ inner; last = Clients.add client seq st.last }, Value v))

  let read st = function
    | Inner r -> Value (S.read st.inner r)
    | Last client -> Last_seq (Clients.find_opt client st.last)

  let inner_op = function Tracked { op; _ } | Untracked op -> op
  let shard_of_update ~shards u = S.shard_of_update ~shards (inner_op u)

  let shard_of_read ~shards = function
    | Inner r -> S.shard_of_read ~shards r
    | Last _ -> None

  (* A client's updates may land on several shards: its last seq is the
     largest any shard recorded. *)
  let merge_read r values =
    match r with
    | Inner r ->
        Value
          (S.merge_read r
             (List.map
                (function Value v -> v | _ -> invalid_arg "merge_read")
                values))
    | Last _ ->
        Last_seq
          (List.fold_left
             (fun acc -> function
               | Last_seq s -> max s acc  (* [None] below every [Some] *)
               | _ -> invalid_arg "merge_read")
             None values)

  let update_codec =
    let open Codec in
    let tracked =
      case 0 (triple int int S.update_codec) (fun (client, seq, op) ->
          Tracked { client; seq; op })
    and untracked = case 1 S.update_codec (fun op -> Untracked op) in
    variant "client table" [ Case tracked; Case untracked ] (function
      | Tracked { client; seq; op } -> Is (tracked, (client, seq, op))
      | Untracked op -> Is (untracked, op))

  let state_codec =
    Codec.map
      (fun (inner, last) -> { inner; last })
      (fun { inner; last } -> (inner, last))
      (Codec.pair S.state_codec (Clients.codec Codec.int Codec.int))

  (* the count, then an 8-byte client and an 8-byte seq per entry *)
  let checkpoint_bytes ~clients = 8 + (16 * clients)

  let equal_state a b =
    S.equal_state a.inner b.inner && Clients.equal Int.equal a.last b.last

  let equal_value a b =
    match (a, b) with
    | Value a, Value b -> S.equal_value a b
    | Duplicate, Duplicate -> true
    | Last_seq a, Last_seq b -> Option.equal Int.equal a b
    | (Value _ | Duplicate | Last_seq _), _ -> false

  let pp_update ppf = function
    | Tracked { client; seq; op } ->
        Format.fprintf ppf "c%d#%d:%a" client seq S.pp_update op
    | Untracked op -> S.pp_update ppf op

  let pp_read ppf = function
    | Inner r -> S.pp_read ppf r
    | Last client -> Format.fprintf ppf "last(c%d)" client

  let pp_value ppf = function
    | Value v -> S.pp_value ppf v
    | Duplicate -> Format.pp_print_string ppf "duplicate"
    | Last_seq None -> Format.pp_print_string ppf "last=none"
    | Last_seq (Some s) -> Format.fprintf ppf "last=%d" s
end
