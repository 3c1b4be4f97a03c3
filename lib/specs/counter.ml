(** The paper's running example (§3.3): a shared counter. [Increment]
    returns the new value; [Add] generalises it; [Get] is the read. *)

type state = int
type update_op = Increment | Add of int
type read_op = Get
type value = int

let name = "counter"
let initial = 0

let apply st = function
  | Increment -> (st + 1, st + 1)
  | Add k -> (st + k, st + k)

let read st Get = st

let update_codec =
  let open Onll_util.Codec in
  let increment = const 0 Increment and add = case 1 int (fun k -> Add k) in
  variant "counter op" [ Case increment; Case add ] (function
    | Increment -> Is (increment, ())
    | Add k -> Is (add, k))

let state_codec = Onll_util.Codec.int
let equal_state = Int.equal
let equal_value = Int.equal

let pp_update ppf = function
  | Increment -> Format.pp_print_string ppf "incr"
  | Add k -> Format.fprintf ppf "add(%d)" k

let pp_read ppf Get = Format.pp_print_string ppf "get"
let pp_value = Format.pp_print_int

(* No natural partition key — a counter is one cell of global state.
   Single-shard fallback: the sharded construction degenerates to one
   active shard, which is always correct (E14). *)
let shard_of_update ~shards:_ _ = 0
let shard_of_read ~shards:_ _ = Some 0
let merge_read _ = function v :: _ -> v | [] -> invalid_arg "merge_read"
