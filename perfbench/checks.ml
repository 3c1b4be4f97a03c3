(* The correctness checks a run must pass before it reports any metric.

   [Ledger] applies the rules of [Onll_serve.Loadgen.Audit] to the
   benchmark's own generator: Audit only records the confirmations of
   [Loadgen.run] (its recording functions are not exported), and that
   generator cannot be used for timing (see NOTES.md), so the ledger
   keeps the same evidence — (client, seq)-keyed confirmations, in-doubt
   operations — and gives the same verdict. *)

module Ledger = struct
  type t = {
    confirmed : (int * int, unit) Hashtbl.t;
    in_doubt : (int, int) Hashtbl.t;  (* client -> seq *)
    mutable violations : string list;
    mutable adopted : int;  (* in-doubt operations resolved as applied *)
    mutable dropped : int;  (* in-doubt operations resolved as never applied *)
  }

  let create () =
    { confirmed = Hashtbl.create 4096; in_doubt = Hashtbl.create 4; violations = [];
      adopted = 0; dropped = 0 } [@ocamlformat "disable"]

  let confirm t ~client ~seq =
    if Hashtbl.mem t.confirmed (client, seq) then
      t.violations <-
        Printf.sprintf "client %d seq %d confirmed twice (duplicate)" client seq
        :: t.violations
    else Hashtbl.replace t.confirmed (client, seq) ();
    if Hashtbl.mem t.in_doubt client then t.adopted <- t.adopted + 1;
    Hashtbl.remove t.in_doubt client

  let in_doubt t ~client ~seq = Hashtbl.replace t.in_doubt client seq

  (* The in-doubt operation was resolved as never applied. *)
  let not_applied t ~client =
    if Hashtbl.mem t.in_doubt client then t.dropped <- t.dropped + 1;
    Hashtbl.remove t.in_doubt client
  let confirmed t = Hashtbl.length t.confirmed

  let check_final t ~counter_value =
    let n = confirmed t in
    let v = List.rev t.violations in
    let v =
      if Hashtbl.length t.in_doubt > 0 then
        v @ [ Printf.sprintf "%d operations left in doubt" (Hashtbl.length t.in_doubt) ]
      else v
    in
    if counter_value > n then
      v @ [ Printf.sprintf "counter %d exceeds %d confirmed updates (duplicate apply)" counter_value n ]
    else if counter_value < n then
      v @ [ Printf.sprintf "counter %d below %d confirmed updates (lost acked update)" counter_value n ]
    else v
end

(* Relaxed tiers do no dedup, so their check is the count alone. Every
   acked update is applied once, except that each crash may lose up to
   [max_lost] acked updates in all (the staleness tail it killed), and
   that [in_flight] updates sent but never answered may have been
   applied. After a drain, with no crash, both are 0. *)
let check_acked ?(in_flight = 0) ?(max_lost = 0) ~acked ~counter_value () =
  if counter_value > acked + in_flight then
    [ Printf.sprintf "counter %d exceeds %d acked + %d in flight (duplicate apply)" counter_value acked in_flight ]
  else if counter_value < acked - max_lost then
    [ Printf.sprintf "counter %d lost more than %d of %d acked updates" counter_value max_lost acked ]
  else []

(* Mismatches a kv check names one by one; the rest are counted. *)
let limit = 5

(* Compare a [Get] of every key against the shadow map. *)
let check_kv ~expected ~get =
  let bad = ref [] and n = ref 0 in
  Array.iteri
    (fun k want ->
      let got = get k in
      if got <> want then begin
        incr n;
        if !n <= limit then
          let show = function None -> "none" | Some v -> v in
          bad := Printf.sprintf "key %d: got %s, shadow has %s" k (show got) (show want) :: !bad
      end)
    expected;
  let bad = List.rev !bad in
  if !n > limit then bad @ [ Printf.sprintf "%d mismatched keys in all" !n ] else bad
