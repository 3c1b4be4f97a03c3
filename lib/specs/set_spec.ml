(** An integer set with membership reads. *)

module Iset = Set.Make (Int)

type state = Iset.t
type update_op = Insert of int | Remove of int
type read_op = Contains of int | Cardinal
type value = Changed of bool | Member of bool | Count of int

let name = "set"
let initial = Iset.empty

let apply st = function
  | Insert x ->
      let changed = not (Iset.mem x st) in
      (Iset.add x st, Changed changed)
  | Remove x ->
      let changed = Iset.mem x st in
      (Iset.remove x st, Changed changed)

let read st = function
  | Contains x -> Member (Iset.mem x st)
  | Cardinal -> Count (Iset.cardinal st)

(* Partitioning (E14): element-keyed — [Insert]/[Remove]/[Contains] route
   to the element's shard; [Cardinal] is a global read summing disjoint
   per-shard cardinalities. *)
let shard_of_update ~shards = function
  | Insert x | Remove x -> Onll_core.Spec.int_shard ~shards x

let shard_of_read ~shards = function
  | Contains x -> Some (Onll_core.Spec.int_shard ~shards x)
  | Cardinal -> None

let merge_read _ values =
  Count
    (List.fold_left
       (fun acc -> function
         | Count n -> acc + n
         | Changed _ | Member _ -> assert false)
       0 values)

let update_codec =
  let open Onll_util.Codec in
  let insert = case 0 int (fun x -> Insert x)
  and remove = case 1 int (fun x -> Remove x) in
  variant "set op" [ Case insert; Case remove ] (function
    | Insert x -> Is (insert, x)
    | Remove x -> Is (remove, x))

let state_codec =
  let open Onll_util.Codec in
  map (fun l -> Iset.of_list l) Iset.elements (list int)

let equal_state = Iset.equal
let equal_value (a : value) b = a = b

let pp_update ppf = function
  | Insert x -> Format.fprintf ppf "insert(%d)" x
  | Remove x -> Format.fprintf ppf "remove(%d)" x

let pp_read ppf = function
  | Contains x -> Format.fprintf ppf "contains(%d)" x
  | Cardinal -> Format.pp_print_string ppf "cardinal"

let pp_value ppf = function
  | Changed b -> Format.fprintf ppf "changed=%b" b
  | Member b -> Format.fprintf ppf "member=%b" b
  | Count n -> Format.fprintf ppf "count=%d" n
