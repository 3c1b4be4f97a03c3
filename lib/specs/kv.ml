(** A string key-value store — the shape of the indexing structures most
    NVM data-structure work targets (§7). [Put]/[Delete] return the previous
    binding, so clients can detect replays. *)

module Keys = Onll_util.Ordered_map.Make (Onll_util.Ordered_map.String_key)

type state = string Keys.t
type update_op = Put of string * string | Delete of string
type read_op = Get of string | Size
type value = Previous of string option | Found of string option | Count of int

let name = "kv"
let initial = Keys.empty

(* One walk of the tree per update: [Keys.update] hands over the previous
   binding on its way to the key. *)
let apply st op =
  let prev = ref None in
  let set k b =
    Keys.update k
      (fun old ->
        prev := old;
        b)
      st
  in
  let st =
    match op with Put (k, v) -> set k (Some v) | Delete k -> set k None
  in
  (st, Previous !prev)

let read st = function
  | Get k -> Found (Keys.find_opt k st)
  | Size -> Count (Keys.cardinal st)

(* Partitioning (E14): every operation on key [k] — updates and [Get]s —
   routes to [k]'s shard, so disjoint-key workloads touch disjoint shards.
   [Size] is a global read: each shard counts its own keys and the counts
   sum (shards hold disjoint key sets by construction of the router). *)
let shard_of_update ~shards = function
  | Put (k, _) | Delete k -> Onll_core.Spec.string_shard ~shards k

let shard_of_read ~shards = function
  | Get k -> Some (Onll_core.Spec.string_shard ~shards k)
  | Size -> None

let merge_read _ values =
  Count
    (List.fold_left
       (fun acc -> function
         | Count n -> acc + n
         | Previous _ | Found _ -> assert false)
       0 values)

let update_codec =
  let open Onll_util.Codec in
  let put = case 0 (pair string string) (fun (k, v) -> Put (k, v))
  and delete = case 1 string (fun k -> Delete k) in
  variant "kv op" [ Case put; Case delete ] (function
    | Put (k, v) -> Is (put, (k, v))
    | Delete k -> Is (delete, k))

let state_codec = Keys.codec Onll_util.Codec.string Onll_util.Codec.string

let equal_state = Keys.equal String.equal
let equal_value (a : value) b = a = b

let pp_update ppf = function
  | Put (k, v) -> Format.fprintf ppf "put(%s=%s)" k v
  | Delete k -> Format.fprintf ppf "del(%s)" k

let pp_read ppf = function
  | Get k -> Format.fprintf ppf "get(%s)" k
  | Size -> Format.pp_print_string ppf "size"

let pp_value ppf = function
  | Previous None -> Format.pp_print_string ppf "prev=none"
  | Previous (Some v) -> Format.fprintf ppf "prev=%s" v
  | Found None -> Format.pp_print_string ppf "none"
  | Found (Some v) -> Format.fprintf ppf "found=%s" v
  | Count n -> Format.fprintf ppf "count=%d" n
