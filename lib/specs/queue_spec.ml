(** A FIFO queue of integers (the object class Friedman et al. [15] build
    directly; here it falls out of the universal construction). [Dequeue]
    is an update (it changes the state) returning [None] on empty. *)

type state = int list * int list  (* front, reversed back *)
type update_op = Enqueue of int | Dequeue
type read_op = Peek | Length
type value = Nothing | Taken of int option | Len of int

let name = "queue"
let initial = ([], [])

let normalize = function
  | [], back -> (List.rev back, [])
  | q -> q

let apply st = function
  | Enqueue v ->
      let front, back = st in
      (normalize (front, v :: back), Nothing)
  | Dequeue -> (
      match normalize st with
      | [], _ -> (st, Taken None)
      | x :: front, back -> (normalize (front, back), Taken (Some x)))

let read st = function
  | Peek -> (
      match normalize st with
      | [], _ -> Taken None
      | x :: _, _ -> Taken (Some x))
  | Length ->
      let front, back = st in
      Len (List.length front + List.length back)

let to_list (front, back) = front @ List.rev back

let update_codec =
  let open Onll_util.Codec in
  let enqueue = case 0 int (fun v -> Enqueue v) and dequeue = const 1 Dequeue in
  variant "queue op" [ Case enqueue; Case dequeue ] (function
    | Enqueue v -> Is (enqueue, v)
    | Dequeue -> Is (dequeue, ()))

let state_codec =
  let open Onll_util.Codec in
  (* Canonical form so that equal queues encode equally. *)
  map (fun l -> (l, [])) to_list (list int)

let equal_state a b = to_list a = to_list b
let equal_value (a : value) b = a = b

let pp_update ppf = function
  | Enqueue v -> Format.fprintf ppf "enq(%d)" v
  | Dequeue -> Format.pp_print_string ppf "deq"

let pp_read ppf = function
  | Peek -> Format.pp_print_string ppf "peek"
  | Length -> Format.pp_print_string ppf "len"

let pp_value ppf = function
  | Nothing -> Format.pp_print_string ppf "()"
  | Taken None -> Format.pp_print_string ppf "empty"
  | Taken (Some v) -> Format.fprintf ppf "some(%d)" v
  | Len n -> Format.fprintf ppf "len=%d" n

(* No natural partition key — FIFO order is global: every dequeue depends on every enqueue.
   Single-shard fallback: the sharded construction degenerates to one
   active shard, which is always correct (E14). *)
let shard_of_update ~shards:_ _ = 0
let shard_of_read ~shards:_ _ = Some 0
let merge_read _ = function v :: _ -> v | [] -> invalid_arg "merge_read"
