(** A min-priority queue of (priority, payload) pairs. [Extract_min] is an
    update returning the smallest-priority element; ties break by insertion
    order (determinism matters: the spec must be a function of the update
    sequence). *)

type elt = { prio : int; payload : int; stamp : int }
(** [stamp] is the insertion number, the deterministic tie-breaker. *)

type state = { heap : elt list; next_stamp : int }
(* Sorted by (prio, stamp); small states, so a sorted list is the clearest
   correct implementation. *)

type update_op = Insert of int * int  (** priority, payload *)
  | Extract_min

type read_op = Find_min | Size
type value = Nothing | Min of (int * int) option | Count of int

let name = "pqueue"
let initial = { heap = []; next_stamp = 0 }

let elt_le a b =
  a.prio < b.prio || (a.prio = b.prio && a.stamp <= b.stamp)

let rec insert_sorted e = function
  | [] -> [ e ]
  | x :: rest as l -> if elt_le e x then e :: l else x :: insert_sorted e rest

let apply st = function
  | Insert (prio, payload) ->
      let e = { prio; payload; stamp = st.next_stamp } in
      ( { heap = insert_sorted e st.heap; next_stamp = st.next_stamp + 1 },
        Nothing )
  | Extract_min -> (
      match st.heap with
      | [] -> (st, Min None)
      | e :: rest -> ({ st with heap = rest }, Min (Some (e.prio, e.payload))))

let read st = function
  | Find_min -> (
      match st.heap with
      | [] -> Min None
      | e :: _ -> Min (Some (e.prio, e.payload)))
  | Size -> Count (List.length st.heap)

let update_codec =
  let open Onll_util.Codec in
  let insert = case 0 (pair int int) (fun (p, x) -> Insert (p, x))
  and extract_min = const 1 Extract_min in
  variant "pqueue op" [ Case insert; Case extract_min ] (function
    | Insert (p, x) -> Is (insert, (p, x))
    | Extract_min -> Is (extract_min, ()))

let state_codec =
  let open Onll_util.Codec in
  let elt_c =
    map
      (fun (prio, payload, stamp) -> { prio; payload; stamp })
      (fun { prio; payload; stamp } -> (prio, payload, stamp))
      (triple int int int)
  in
  map
    (fun (heap, next_stamp) -> { heap; next_stamp })
    (fun { heap; next_stamp } -> (heap, next_stamp))
    (pair (list elt_c) int)

let equal_state (a : state) b = a = b
let equal_value (a : value) b = a = b

let pp_update ppf = function
  | Insert (p, x) -> Format.fprintf ppf "insert(%d,%d)" p x
  | Extract_min -> Format.pp_print_string ppf "extract-min"

let pp_read ppf = function
  | Find_min -> Format.pp_print_string ppf "find-min"
  | Size -> Format.pp_print_string ppf "size"

let pp_value ppf = function
  | Nothing -> Format.pp_print_string ppf "()"
  | Min None -> Format.pp_print_string ppf "empty"
  | Min (Some (p, x)) -> Format.fprintf ppf "min(%d,%d)" p x
  | Count n -> Format.fprintf ppf "size=%d" n

(* No natural partition key — the minimum is a global property of the whole heap.
   Single-shard fallback: the sharded construction degenerates to one
   active shard, which is always correct (E14). *)
let shard_of_update ~shards:_ _ = 0
let shard_of_read ~shards:_ _ = Some 0
let merge_read _ = function v :: _ -> v | [] -> invalid_arg "merge_read"
