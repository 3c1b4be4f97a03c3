(* Each correctness check of the benchmark must be able to fail: doctored
   ledgers and a doctored kv store are rejected, honest ones accepted. *)

open Perfbench_lib
module L = Checks.Ledger

let ledger confirmations =
  let l = L.create () in
  List.iter (fun (client, seq) -> L.confirm l ~client ~seq) confirmations;
  l

let accepted = Alcotest.(check (list string)) "no violation" []
let rejected vs = Alcotest.(check bool) "rejected" true (vs <> [])

let ledger_tests =
  [
    Alcotest.test_case "honest ledger accepted" `Quick (fun () ->
        accepted (L.check_final (ledger [ (0, 0); (1, 0); (0, 1) ]) ~counter_value:3));
    Alcotest.test_case "duplicate ack rejected" `Quick (fun () ->
        rejected (L.check_final (ledger [ (0, 0); (0, 0); (1, 0) ]) ~counter_value:2));
    Alcotest.test_case "lost ack rejected" `Quick (fun () ->
        rejected (L.check_final (ledger [ (0, 0); (1, 0); (0, 1) ]) ~counter_value:2));
    Alcotest.test_case "duplicate apply rejected" `Quick (fun () ->
        rejected (L.check_final (ledger [ (0, 0); (1, 0) ]) ~counter_value:3));
    Alcotest.test_case "op left in doubt rejected" `Quick (fun () ->
        let l = ledger [ (0, 0) ] in
        L.in_doubt l ~client:1 ~seq:0;
        rejected (L.check_final l ~counter_value:1);
        L.not_applied l ~client:1;
        accepted (L.check_final l ~counter_value:1);
        Alcotest.(check int) "counted as never applied" 1 l.dropped);
    Alcotest.test_case "in-doubt op confirmed on reattach" `Quick (fun () ->
        let l = ledger [ (0, 0) ] in
        L.in_doubt l ~client:0 ~seq:1;
        L.confirm l ~client:0 ~seq:1;
        accepted (L.check_final l ~counter_value:2);
        Alcotest.(check int) "counted as applied" 1 l.adopted);
  ]

let acked_tests =
  [
    Alcotest.test_case "acked count matches" `Quick (fun () ->
        accepted (Checks.check_acked ~acked:40 ~counter_value:40 ()));
    Alcotest.test_case "lost acked update rejected" `Quick (fun () ->
        rejected (Checks.check_acked ~acked:40 ~counter_value:39 ()));
    Alcotest.test_case "duplicate apply rejected" `Quick (fun () ->
        rejected (Checks.check_acked ~acked:40 ~counter_value:41 ()));
    Alcotest.test_case "crash loss within the budget accepted" `Quick (fun () ->
        accepted (Checks.check_acked ~in_flight:4 ~max_lost:16 ~acked:40 ~counter_value:24 ());
        accepted (Checks.check_acked ~in_flight:4 ~max_lost:16 ~acked:40 ~counter_value:44 ()));
    Alcotest.test_case "crash loss beyond the budget rejected" `Quick (fun () ->
        rejected (Checks.check_acked ~in_flight:4 ~max_lost:16 ~acked:40 ~counter_value:23 ()));
    Alcotest.test_case "more than acked + in flight rejected" `Quick (fun () ->
        rejected (Checks.check_acked ~in_flight:4 ~max_lost:16 ~acked:40 ~counter_value:45 ()));
  ]

let kv_tests =
  let expected = [| Some "a"; None; Some "c" |] in
  let store doctor k = if k = 2 then doctor else expected.(k) in
  [
    Alcotest.test_case "matching store accepted" `Quick (fun () ->
        accepted (Checks.check_kv ~expected ~get:(store (Some "c"))));
    Alcotest.test_case "wrong value rejected" `Quick (fun () ->
        rejected (Checks.check_kv ~expected ~get:(store (Some "x"))));
    Alcotest.test_case "missing key rejected" `Quick (fun () ->
        rejected (Checks.check_kv ~expected ~get:(store None)));
  ]

let () =
  Alcotest.run "perfbench checks"
    [ ("exactly-once ledger", ledger_tests); ("acked count", acked_tests); ("kv shadow", kv_tests) ]
