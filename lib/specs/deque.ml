(** A double-ended queue of integers. *)

type state = int list  (* front first *)
type update_op = Push_front of int | Push_back of int | Pop_front | Pop_back
type read_op = Front | Back | Length
type value = Nothing | Got of int option | Count of int

let name = "deque"
let initial = []

let apply st = function
  | Push_front x -> (x :: st, Nothing)
  | Push_back x -> (st @ [ x ], Nothing)
  | Pop_front -> (
      match st with
      | [] -> ([], Got None)
      | x :: rest -> (rest, Got (Some x)))
  | Pop_back -> (
      match List.rev st with
      | [] -> ([], Got None)
      | x :: rest_rev -> (List.rev rest_rev, Got (Some x)))

let read st = function
  | Front -> Got (match st with [] -> None | x :: _ -> Some x)
  | Back -> Got (match List.rev st with [] -> None | x :: _ -> Some x)
  | Length -> Count (List.length st)

let update_codec =
  let open Onll_util.Codec in
  let push_front = case 0 int (fun x -> Push_front x)
  and push_back = case 1 int (fun x -> Push_back x)
  and pop_front = const 2 Pop_front
  and pop_back = const 3 Pop_back in
  variant "deque op"
    [ Case push_front; Case push_back; Case pop_front; Case pop_back ]
    (function
      | Push_front x -> Is (push_front, x)
      | Push_back x -> Is (push_back, x)
      | Pop_front -> Is (pop_front, ())
      | Pop_back -> Is (pop_back, ()))

let state_codec = Onll_util.Codec.(list int)
let equal_state (a : state) b = a = b
let equal_value (a : value) b = a = b

let pp_update ppf = function
  | Push_front x -> Format.fprintf ppf "push-front(%d)" x
  | Push_back x -> Format.fprintf ppf "push-back(%d)" x
  | Pop_front -> Format.pp_print_string ppf "pop-front"
  | Pop_back -> Format.pp_print_string ppf "pop-back"

let pp_read ppf = function
  | Front -> Format.pp_print_string ppf "front"
  | Back -> Format.pp_print_string ppf "back"
  | Length -> Format.pp_print_string ppf "length"

let pp_value ppf = function
  | Nothing -> Format.pp_print_string ppf "()"
  | Got None -> Format.pp_print_string ppf "empty"
  | Got (Some x) -> Format.fprintf ppf "got(%d)" x
  | Count n -> Format.fprintf ppf "len=%d" n

(* No natural partition key — both ends observe the same global sequence.
   Single-shard fallback: the sharded construction degenerates to one
   active shard, which is always correct (E14). *)
let shard_of_update ~shards:_ _ = 0
let shard_of_read ~shards:_ _ = Some 0
let merge_read _ = function v :: _ -> v | [] -> invalid_arg "merge_read"
