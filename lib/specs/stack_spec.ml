(** A LIFO stack of integers. *)

type state = int list
type update_op = Push of int | Pop
type read_op = Top | Depth
type value = Nothing | Taken of int option | Count of int

let name = "stack"
let initial = []

let apply st = function
  | Push v -> (v :: st, Nothing)
  | Pop -> (
      match st with
      | [] -> ([], Taken None)
      | x :: rest -> (rest, Taken (Some x)))

let read st = function
  | Top -> ( match st with [] -> Taken None | x :: _ -> Taken (Some x))
  | Depth -> Count (List.length st)

let update_codec =
  let open Onll_util.Codec in
  let push = case 0 int (fun v -> Push v) and pop = const 1 Pop in
  variant "stack op" [ Case push; Case pop ] (function
    | Push v -> Is (push, v)
    | Pop -> Is (pop, ()))

let state_codec = Onll_util.Codec.(list int)
let equal_state (a : state) b = a = b
let equal_value (a : value) b = a = b

let pp_update ppf = function
  | Push v -> Format.fprintf ppf "push(%d)" v
  | Pop -> Format.pp_print_string ppf "pop"

let pp_read ppf = function
  | Top -> Format.pp_print_string ppf "top"
  | Depth -> Format.pp_print_string ppf "depth"

let pp_value ppf = function
  | Nothing -> Format.pp_print_string ppf "()"
  | Taken None -> Format.pp_print_string ppf "empty"
  | Taken (Some v) -> Format.fprintf ppf "some(%d)" v
  | Count n -> Format.fprintf ppf "depth=%d" n

(* No natural partition key — LIFO order is global: every pop depends on every push.
   Single-shard fallback: the sharded construction degenerates to one
   active shard, which is always correct (E14). *)
let shard_of_update ~shards:_ _ = 0
let shard_of_read ~shards:_ _ = Some 0
let merge_read _ = function v :: _ -> v | [] -> invalid_arg "merge_read"
