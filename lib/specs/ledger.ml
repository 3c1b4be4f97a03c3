(** A bank ledger: named accounts with crash-consistent transfers. The
    motivating shape for durable linearizability — once a transfer has
    responded (money reported moved), no crash may un-move it, and no crash
    may ever duplicate or lose money mid-transfer. *)

module Balances = Onll_util.Ordered_map.Make (Onll_util.Ordered_map.String_key)

type state = int Balances.t
type update_op =
  | Open of string  (** create an account with balance 0 *)
  | Deposit of string * int
  | Withdraw of string * int
  | Transfer of string * string * int

type read_op = Balance of string | Total | Accounts
type value =
  | Ok_v
  | Rejected of string
  | Amount of int option
  | Names of string list

let name = "ledger"
let initial = Balances.empty

let apply st = function
  | Open a ->
      if Balances.mem a st then (st, Rejected "exists")
      else (Balances.add a 0 st, Ok_v)
  | Deposit (a, amt) -> (
      if amt <= 0 then (st, Rejected "non-positive amount")
      else
        match Balances.find_opt a st with
        | None -> (st, Rejected "no such account")
        | Some bal -> (Balances.add a (bal + amt) st, Ok_v))
  | Withdraw (a, amt) -> (
      if amt <= 0 then (st, Rejected "non-positive amount")
      else
        match Balances.find_opt a st with
        | None -> (st, Rejected "no such account")
        | Some bal ->
            if bal < amt then (st, Rejected "insufficient funds")
            else (Balances.add a (bal - amt) st, Ok_v))
  | Transfer (a, b, amt) -> (
      if amt <= 0 then (st, Rejected "non-positive amount")
      else if a = b then (st, Rejected "same account")
      else
        match (Balances.find_opt a st, Balances.find_opt b st) with
        | None, _ | _, None -> (st, Rejected "no such account")
        | Some ba, Some bb ->
            if ba < amt then (st, Rejected "insufficient funds")
            else
              (Balances.add a (ba - amt) (Balances.add b (bb + amt) st), Ok_v))

let read st = function
  | Balance a -> Amount (Balances.find_opt a st)
  | Total -> Amount (Some (Balances.fold (fun _ v acc -> acc + v) st 0))
  | Accounts -> Names (List.map fst (Balances.bindings st))

let update_codec =
  let open Onll_util.Codec in
  let open_ = case 0 string (fun a -> Open a)
  and deposit = case 1 (pair string int) (fun (a, amt) -> Deposit (a, amt))
  and withdraw = case 2 (pair string int) (fun (a, amt) -> Withdraw (a, amt))
  and transfer =
    case 3 (triple string string int) (fun (a, b, amt) -> Transfer (a, b, amt))
  in
  variant "ledger op"
    [ Case open_; Case deposit; Case withdraw; Case transfer ]
    (function
      | Open a -> Is (open_, a)
      | Deposit (a, amt) -> Is (deposit, (a, amt))
      | Withdraw (a, amt) -> Is (withdraw, (a, amt))
      | Transfer (a, b, amt) -> Is (transfer, (a, b, amt)))

let state_codec = Balances.codec Onll_util.Codec.string Onll_util.Codec.int

let equal_state = Balances.equal Int.equal
let equal_value (a : value) b = a = b

let pp_update ppf = function
  | Open a -> Format.fprintf ppf "open(%s)" a
  | Deposit (a, amt) -> Format.fprintf ppf "deposit(%s,%d)" a amt
  | Withdraw (a, amt) -> Format.fprintf ppf "withdraw(%s,%d)" a amt
  | Transfer (a, b, amt) -> Format.fprintf ppf "transfer(%s->%s,%d)" a b amt

let pp_read ppf = function
  | Balance a -> Format.fprintf ppf "balance(%s)" a
  | Total -> Format.pp_print_string ppf "total"
  | Accounts -> Format.pp_print_string ppf "accounts"

let pp_value ppf = function
  | Ok_v -> Format.pp_print_string ppf "ok"
  | Rejected r -> Format.fprintf ppf "rejected(%s)" r
  | Amount None -> Format.pp_print_string ppf "no-account"
  | Amount (Some n) -> Format.fprintf ppf "%d" n
  | Names l -> Format.fprintf ppf "[%s]" (String.concat ";" l)

(* No natural partition key — transfers atomically touch two accounts, so no per-account split is sound.
   Single-shard fallback: the sharded construction degenerates to one
   active shard, which is always correct (E14). *)
let shard_of_update ~shards:_ _ = 0
let shard_of_read ~shards:_ _ = Some 0
let merge_read _ = function v :: _ -> v | [] -> invalid_arg "merge_read"
