open Onll_util

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* Generic codec-roundtrip property for a spec's update operations, driven
   by the shared seeded generators. *)
let op_roundtrip (type u) ~name (codec : u Codec.t) (gen : Splitmix.t -> u) =
  qcheck
    (QCheck.Test.make ~name:(name ^ " update codec roundtrips") ~count:300
       QCheck.small_nat
       (fun seed ->
         let rng = Splitmix.create seed in
         let op = gen rng in
         Codec.decode codec (Codec.encode codec op) = op))

(* {1 Counter} *)

let test_counter_semantics () =
  let open Onll_specs.Counter in
  check Alcotest.int "initial" 0 initial;
  check Alcotest.(pair int int) "incr" (1, 1) (apply 0 Increment);
  check Alcotest.(pair int int) "add" (7, 7) (apply 2 (Add 5));
  check Alcotest.(pair int int) "add negative" (-3, -3) (apply 0 (Add (-3)));
  check Alcotest.int "read" 5 (read 5 Get)

(* {1 Register} *)

let test_register_semantics () =
  let open Onll_specs.Register in
  check Alcotest.(pair int int) "write returns old" (9, 0) (apply 0 (Write 9));
  check Alcotest.int "read" 9 (read 9 Read)

(* {1 Queue} *)

let test_queue_semantics () =
  let open Onll_specs.Queue_spec in
  let st = initial in
  let st, v1 = apply st (Enqueue 1) in
  check Alcotest.bool "enq returns nothing" true (v1 = Nothing);
  let st, _ = apply st (Enqueue 2) in
  let st, _ = apply st (Enqueue 3) in
  check Alcotest.bool "peek" true (read st Peek = Taken (Some 1));
  check Alcotest.bool "length" true (read st Length = Len 3);
  let st, d1 = apply st Dequeue in
  let st, d2 = apply st Dequeue in
  let st, d3 = apply st Dequeue in
  let _, d4 = apply st Dequeue in
  check Alcotest.bool "fifo order" true
    ([ d1; d2; d3; d4 ]
    = [ Taken (Some 1); Taken (Some 2); Taken (Some 3); Taken None ])

let prop_queue_matches_stdlib =
  qcheck
    (QCheck.Test.make ~name:"queue matches Stdlib.Queue" ~count:200
       QCheck.(small_list (option small_nat))
       (fun cmds ->
         let open Onll_specs.Queue_spec in
         let model = Queue.create () in
         let st = ref initial in
         List.for_all
           (fun cmd ->
             match cmd with
             | Some x ->
                 Queue.push x model;
                 let st', v = apply !st (Enqueue x) in
                 st := st';
                 v = Nothing
             | None ->
                 let expected = Queue.take_opt model in
                 let st', v = apply !st Dequeue in
                 st := st';
                 v = Taken expected)
           cmds))

let test_queue_state_codec_canonical () =
  let open Onll_specs.Queue_spec in
  (* The same logical queue in different (front, back) splits must encode
     identically: recovery checkpoints rely on canonical encodings. *)
  let a = ([ 1; 2 ], [ 4; 3 ]) in
  let b = ([ 1; 2; 3; 4 ], []) in
  check Alcotest.bool "equal states" true (equal_state a b);
  check Alcotest.string "equal encodings"
    (Codec.encode state_codec a)
    (Codec.encode state_codec b)

(* {1 Stack} *)

let test_stack_semantics () =
  let open Onll_specs.Stack_spec in
  let st, _ = apply initial (Push 1) in
  let st, _ = apply st (Push 2) in
  check Alcotest.bool "top" true (read st Top = Taken (Some 2));
  check Alcotest.bool "depth" true (read st Depth = Count 2);
  let st, p1 = apply st Pop in
  check Alcotest.bool "lifo" true (p1 = Taken (Some 2));
  let st, _ = apply st Pop in
  let _, p3 = apply st Pop in
  check Alcotest.bool "pop empty" true (p3 = Taken None)

(* {1 KV} *)

let test_kv_semantics () =
  let open Onll_specs.Kv in
  let st, v = apply initial (Put ("a", "1")) in
  check Alcotest.bool "fresh put" true (v = Previous None);
  let st, v = apply st (Put ("a", "2")) in
  check Alcotest.bool "overwrite" true (v = Previous (Some "1"));
  check Alcotest.bool "get" true (read st (Get "a") = Found (Some "2"));
  check Alcotest.bool "size" true (read st Size = Count 1);
  let st, v = apply st (Delete "a") in
  check Alcotest.bool "delete returns old" true (v = Previous (Some "2"));
  let _, v = apply st (Delete "a") in
  check Alcotest.bool "delete absent" true (v = Previous None)

(* The map states' codec against the list codec it replaced, kept here
   as the reference over a Stdlib map: the bindings of [Smap.bindings] in
   a list, decoded by adding them in order. Encodings must be
   byte-identical, and any list of bindings — shuffled, with duplicate
   keys (forged bytes) — must decode to what adding them in order gives,
   the last binding of a key winning. *)
let test_map_state_codecs () =
  let module Kv = Onll_specs.Kv in
  let module Ledger = Onll_specs.Ledger in
  let module Smap = Map.Make (String) in
  let reference value =
    Codec.(
      map
        (fun bindings -> Smap.of_seq (List.to_seq bindings))
        Smap.bindings
        (list (pair string value)))
  in
  let kv_ref = reference Codec.string and ledger_ref = reference Codec.int in
  let rng = Random.State.make [| 0x5EED |] in
  for trial = 1 to 300 do
    let n = Random.State.int rng (if trial mod 10 = 0 then 3000 else 40) in
    let keys = 1 + Random.State.int rng (2 * (n + 1)) in
    let bindings =
      List.init n (fun _ ->
          ( Printf.sprintf "k%d" (Random.State.int rng keys),
            Random.State.int rng 1000 ))
    in
    let kv_bindings = List.map (fun (k, v) -> (k, string_of_int v)) bindings in
    let name what = Printf.sprintf "trial %d (%d bindings): %s" trial n what in
    let kv_bytes = Codec.encode Codec.(list (pair string string)) kv_bindings in
    let kv = Codec.decode Kv.state_codec kv_bytes in
    let kv_expected = Codec.decode kv_ref kv_bytes in
    check Alcotest.bool (name "kv decodes as the reference") true
      (Kv.Keys.bindings kv = Smap.bindings kv_expected);
    check Alcotest.string (name "kv encodes as the reference")
      (Codec.encode kv_ref kv_expected)
      (Codec.encode Kv.state_codec kv);
    let ledger_bytes = Codec.encode Codec.(list (pair string int)) bindings in
    let ledger = Codec.decode Ledger.state_codec ledger_bytes in
    let ledger_expected = Codec.decode ledger_ref ledger_bytes in
    check Alcotest.bool (name "ledger decodes as the reference") true
      (Ledger.Balances.bindings ledger = Smap.bindings ledger_expected);
    check Alcotest.string (name "ledger encodes as the reference")
      (Codec.encode ledger_ref ledger_expected)
      (Codec.encode Ledger.state_codec ledger)
  done

let prop_kv_matches_assoc =
  qcheck
    (QCheck.Test.make ~name:"kv matches an association list" ~count:200
       QCheck.(
         small_list
           (pair (int_bound 3) (pair (int_bound 3) (string_of_size Gen.(0 -- 4)))))
       (fun cmds ->
         let open Onll_specs.Kv in
         let key i = Printf.sprintf "k%d" i in
         let model = Hashtbl.create 8 in
         let st = ref initial in
         List.for_all
           (fun (tag, (k, v)) ->
             let k = key k in
             if tag = 0 then begin
               let expected = Hashtbl.find_opt model k in
               Hashtbl.remove model k;
               let st', got = apply !st (Delete k) in
               st := st';
               got = Previous expected
             end
             else begin
               let expected = Hashtbl.find_opt model k in
               Hashtbl.replace model k v;
               let st', got = apply !st (Put (k, v)) in
               st := st';
               got = Previous expected
             end)
           cmds))

(* {1 Set} *)

let test_set_semantics () =
  let open Onll_specs.Set_spec in
  let st, v = apply initial (Insert 5) in
  check Alcotest.bool "insert fresh" true (v = Changed true);
  let st, v = apply st (Insert 5) in
  check Alcotest.bool "insert dup" true (v = Changed false);
  check Alcotest.bool "contains" true (read st (Contains 5) = Member true);
  check Alcotest.bool "cardinal" true (read st Cardinal = Count 1);
  let st, v = apply st (Remove 5) in
  check Alcotest.bool "remove" true (v = Changed true);
  let _, v = apply st (Remove 5) in
  check Alcotest.bool "remove absent" true (v = Changed false)

(* {1 Ledger} *)

let test_ledger_basic () =
  let open Onll_specs.Ledger in
  let st, v = apply initial (Open "a") in
  check Alcotest.bool "open" true (v = Ok_v);
  let _, v = apply st (Open "a") in
  check Alcotest.bool "reopen rejected" true (v = Rejected "exists");
  let st, v = apply st (Deposit ("a", 100)) in
  check Alcotest.bool "deposit" true (v = Ok_v);
  check Alcotest.bool "balance" true (read st (Balance "a") = Amount (Some 100));
  let st, v = apply st (Withdraw ("a", 30)) in
  check Alcotest.bool "withdraw" true (v = Ok_v);
  check Alcotest.bool "balance 70" true (read st (Balance "a") = Amount (Some 70));
  let _, v = apply st (Withdraw ("a", 1000)) in
  check Alcotest.bool "overdraft rejected" true
    (v = Rejected "insufficient funds")

let test_ledger_transfer () =
  let open Onll_specs.Ledger in
  let st, _ = apply initial (Open "a") in
  let st, _ = apply st (Open "b") in
  let st, _ = apply st (Deposit ("a", 100)) in
  let st, v = apply st (Transfer ("a", "b", 40)) in
  check Alcotest.bool "transfer ok" true (v = Ok_v);
  check Alcotest.bool "a debited" true (read st (Balance "a") = Amount (Some 60));
  check Alcotest.bool "b credited" true
    (read st (Balance "b") = Amount (Some 40));
  let _, v = apply st (Transfer ("a", "a", 10)) in
  check Alcotest.bool "self transfer rejected" true (v = Rejected "same account");
  let _, v = apply st (Transfer ("a", "zz", 10)) in
  check Alcotest.bool "unknown account" true (v = Rejected "no such account");
  let _, v = apply st (Transfer ("a", "b", 0)) in
  check Alcotest.bool "zero amount" true (v = Rejected "non-positive amount")

let prop_ledger_conserves_money =
  qcheck
    (QCheck.Test.make
       ~name:"ledger: deposits/withdrawals account for the total" ~count:200
       QCheck.small_nat
       (fun seed ->
         let open Onll_specs.Ledger in
         let rng = Splitmix.create seed in
         let st = ref initial in
         let injected = ref 0 in
         for _ = 1 to 40 do
           let op = Test_support.Gen.Ledger.update rng in
           let st', v = apply !st op in
           st := st';
           (* only accepted deposits/withdrawals change the total *)
           (match (op, v) with
           | Deposit (_, n), Ok_v -> injected := !injected + n
           | Withdraw (_, n), Ok_v -> injected := !injected - n
           | (Deposit _ | Withdraw _ | Open _ | Transfer _), _ -> ())
         done;
         read !st Total = Amount (Some !injected)))

(* {1 Priority queue} *)

let test_pqueue_semantics () =
  let open Onll_specs.Pqueue in
  let st, _ = apply initial (Insert (5, 50)) in
  let st, _ = apply st (Insert (2, 20)) in
  let st, _ = apply st (Insert (7, 70)) in
  check Alcotest.bool "find min" true (read st Find_min = Min (Some (2, 20)));
  check Alcotest.bool "size" true (read st Size = Count 3);
  let st, m1 = apply st Extract_min in
  let st, m2 = apply st Extract_min in
  let st, m3 = apply st Extract_min in
  let _, m4 = apply st Extract_min in
  check Alcotest.bool "extraction order" true
    ([ m1; m2; m3; m4 ]
    = [ Min (Some (2, 20)); Min (Some (5, 50)); Min (Some (7, 70)); Min None ])

let test_pqueue_ties_deterministic () =
  let open Onll_specs.Pqueue in
  let st, _ = apply initial (Insert (1, 111)) in
  let st, _ = apply st (Insert (1, 222)) in
  let st, m1 = apply st Extract_min in
  let _, m2 = apply st Extract_min in
  check Alcotest.bool "fifo among equal priorities" true
    (m1 = Min (Some (1, 111)) && m2 = Min (Some (1, 222)))

let prop_pqueue_extracts_sorted =
  qcheck
    (QCheck.Test.make ~name:"pqueue extracts in priority order" ~count:150
       QCheck.(small_list (pair (int_bound 20) (int_bound 100)))
       (fun inserts ->
         let open Onll_specs.Pqueue in
         let st =
           List.fold_left
             (fun st (p, x) -> fst (apply st (Insert (p, x))))
             initial inserts
         in
         let rec drain st acc =
           match apply st Extract_min with
           | _, Min None -> List.rev acc
           | st', Min (Some (p, _)) -> drain st' (p :: acc)
           | _ -> assert false
         in
         let prios = drain st [] in
         prios = List.sort compare prios))

(* {1 Deque} *)

let test_deque_semantics () =
  let open Onll_specs.Deque in
  let st, _ = apply initial (Push_back 2) in
  let st, _ = apply st (Push_front 1) in
  let st, _ = apply st (Push_back 3) in
  check Alcotest.bool "front" true (read st Front = Got (Some 1));
  check Alcotest.bool "back" true (read st Back = Got (Some 3));
  check Alcotest.bool "length" true (read st Length = Count 3);
  let st, f = apply st Pop_front in
  let st, b = apply st Pop_back in
  let st, m = apply st Pop_front in
  let _, e = apply st Pop_back in
  check Alcotest.bool "pop order" true
    ([ f; b; m; e ] = [ Got (Some 1); Got (Some 3); Got (Some 2); Got None ])

(* {1 Codec roundtrips for every spec} *)

let prop_counter_codec =
  op_roundtrip ~name:"counter" Onll_specs.Counter.update_codec
    Test_support.Gen.Counter.update

let prop_register_codec =
  op_roundtrip ~name:"register" Onll_specs.Register.update_codec
    Test_support.Gen.Register.update

let prop_queue_codec =
  op_roundtrip ~name:"queue" Onll_specs.Queue_spec.update_codec
    Test_support.Gen.Queue.update

let prop_stack_codec =
  op_roundtrip ~name:"stack" Onll_specs.Stack_spec.update_codec
    Test_support.Gen.Stack.update

let prop_kv_codec =
  op_roundtrip ~name:"kv" Onll_specs.Kv.update_codec
    Test_support.Gen.Kv.update

let prop_set_codec =
  op_roundtrip ~name:"set" Onll_specs.Set_spec.update_codec
    Test_support.Gen.Set_g.update

let prop_ledger_codec =
  op_roundtrip ~name:"ledger" Onll_specs.Ledger.update_codec
    Test_support.Gen.Ledger.update

let prop_pqueue_codec =
  op_roundtrip ~name:"pqueue" Onll_specs.Pqueue.update_codec
    Test_support.Gen.Pqueue.update

let prop_deque_codec =
  op_roundtrip ~name:"deque" Onll_specs.Deque.update_codec
    Test_support.Gen.Deque.update

(* State codecs roundtrip through sequences of generated updates. *)
let state_roundtrip (type s u)
    (module S : Onll_core.Spec.S with type state = s and type update_op = u)
    gen =
  qcheck
    (QCheck.Test.make
       ~name:(S.name ^ " state codec roundtrips after random updates")
       ~count:150 QCheck.small_nat
       (fun seed ->
         let rng = Splitmix.create seed in
         let st = ref S.initial in
         for _ = 1 to 20 do
           st := fst (S.apply !st (gen rng))
         done;
         S.equal_state !st
           (Codec.decode S.state_codec (Codec.encode S.state_codec !st))))

(* The engines' record log: an [Ops] record is byte for byte its
   envelopes encoded one at a time and spliced into the record frame
   (tag 0, body length, [exec_idx], count, the envelopes), and keys to
   its newest execution index; a [Checkpoint] of a state built by random
   updates keys to one past its index. Runs of 1 to [max_processes]
   envelopes, each with or without a transaction payload. *)
let ops_preencoded (type u)
    (module S : Onll_core.Spec.S with type update_op = u) gen =
  let sim = Onll_machine.Sim.create ~max_processes:4 () in
  let module M = (val Onll_machine.Sim.machine sim) in
  let module R = Onll_core.Record_log.Make (M) (S) in
  qcheck
    (QCheck.Test.make
       ~name:(S.name ^ " pre-encoded Ops record = the record codec's")
       ~count:150 QCheck.small_nat
       (fun seed ->
         let rng = Splitmix.create seed in
         let n = 1 + Splitmix.int rng M.max_processes in
         let exec_idx = n + Splitmix.int rng 1000 in
         let envs =
           List.init n (fun _ ->
               {
                 R.e_proc = Splitmix.int rng M.max_processes;
                 e_seq = Splitmix.int rng 1000;
                 e_op = gen rng;
                 e_txn =
                   (if Splitmix.bool rng then
                      Some (string_of_int (Splitmix.int rng 1_000_000))
                    else None);
               })
         in
         let body =
           Codec.encode Codec.int exec_idx
           ^ Codec.encode Codec.int n
           ^ String.concat "" (List.map (Codec.encode R.envelope_codec) envs)
         in
         let spliced =
           Codec.encode Codec.int 0
           ^ Codec.encode Codec.int (String.length body)
           ^ body
         in
         let st = ref S.initial in
         for _ = 1 to Splitmix.int rng 20 do
           st := fst (S.apply !st (gen rng))
         done;
         let ckpt =
           R.Checkpoint
             {
               upto_idx = exec_idx;
               state =
                 {
                   R.st = !st;
                   floors =
                     Array.init M.max_processes (fun _ -> Splitmix.int rng 50);
                   dropped =
                     (if Splitmix.bool rng then [] else [ (1, 7); (0, 3) ]);
                 };
             }
         in
         spliced = Codec.encode R.record_codec (R.Ops { exec_idx; envs })
         && R.record_key spliced = exec_idx
         && R.record_key (Codec.encode R.record_codec ckpt) = exec_idx + 1))

let () =
  Alcotest.run "specs"
    [
      ( "counter",
        [
          Alcotest.test_case "semantics" `Quick test_counter_semantics;
          prop_counter_codec;
          state_roundtrip (module Onll_specs.Counter)
            Test_support.Gen.Counter.update;
          ops_preencoded (module Onll_specs.Counter)
            Test_support.Gen.Counter.update;
        ] );
      ( "register",
        [
          Alcotest.test_case "semantics" `Quick test_register_semantics;
          prop_register_codec;
          state_roundtrip (module Onll_specs.Register)
            Test_support.Gen.Register.update;
          ops_preencoded (module Onll_specs.Register)
            Test_support.Gen.Register.update;
        ] );
      ( "queue",
        [
          Alcotest.test_case "semantics" `Quick test_queue_semantics;
          Alcotest.test_case "canonical state codec" `Quick
            test_queue_state_codec_canonical;
          prop_queue_matches_stdlib;
          prop_queue_codec;
          state_roundtrip (module Onll_specs.Queue_spec)
            Test_support.Gen.Queue.update;
          ops_preencoded (module Onll_specs.Queue_spec)
            Test_support.Gen.Queue.update;
        ] );
      ( "stack",
        [
          Alcotest.test_case "semantics" `Quick test_stack_semantics;
          prop_stack_codec;
          state_roundtrip (module Onll_specs.Stack_spec)
            Test_support.Gen.Stack.update;
          ops_preencoded (module Onll_specs.Stack_spec)
            Test_support.Gen.Stack.update;
        ] );
      ( "kv",
        [
          Alcotest.test_case "semantics" `Quick test_kv_semantics;
          prop_kv_matches_assoc;
          prop_kv_codec;
          state_roundtrip (module Onll_specs.Kv) Test_support.Gen.Kv.update;
          Alcotest.test_case "map state codecs = the list codec" `Quick
            test_map_state_codecs;
          ops_preencoded (module Onll_specs.Kv) Test_support.Gen.Kv.update;
        ] );
      ( "set",
        [
          Alcotest.test_case "semantics" `Quick test_set_semantics;
          prop_set_codec;
          state_roundtrip (module Onll_specs.Set_spec)
            Test_support.Gen.Set_g.update;
          ops_preencoded (module Onll_specs.Set_spec)
            Test_support.Gen.Set_g.update;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "basics" `Quick test_ledger_basic;
          Alcotest.test_case "transfer" `Quick test_ledger_transfer;
          prop_ledger_conserves_money;
          prop_ledger_codec;
          state_roundtrip (module Onll_specs.Ledger)
            Test_support.Gen.Ledger.update;
          ops_preencoded (module Onll_specs.Ledger)
            Test_support.Gen.Ledger.update;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "semantics" `Quick test_pqueue_semantics;
          Alcotest.test_case "deterministic ties" `Quick
            test_pqueue_ties_deterministic;
          prop_pqueue_extracts_sorted;
          prop_pqueue_codec;
          state_roundtrip (module Onll_specs.Pqueue)
            Test_support.Gen.Pqueue.update;
          ops_preencoded (module Onll_specs.Pqueue)
            Test_support.Gen.Pqueue.update;
        ] );
      ( "deque",
        [
          Alcotest.test_case "semantics" `Quick test_deque_semantics;
          prop_deque_codec;
          state_roundtrip (module Onll_specs.Deque)
            Test_support.Gen.Deque.update;
          ops_preencoded (module Onll_specs.Deque)
            Test_support.Gen.Deque.update;
        ] );
    ]
