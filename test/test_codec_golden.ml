(* Golden bytes: the encodings that lie in existing stores and cross the
   wire, pinned byte for byte. A fixed list of values per specification,
   for the wire protocol, the client table and the record log, each
   encoded and compared with the hex it had when the format was set. A
   change to the codec library that moves any byte fails here before it
   can strand a store or a peer.

   [dune exec test/test_codec_golden.exe -- --print] prints the table in
   the form [golden] below takes. *)

module Codec = Onll_util.Codec

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

(* A specification's updates, then the state they build. *)
let spec (type u) (module S : Onll_core.Spec.S with type update_op = u)
    (ops : u list) =
  let st = List.fold_left (fun st op -> fst (S.apply st op)) S.initial ops in
  List.mapi
    (fun i op ->
      (Printf.sprintf "%s update %d" S.name i, Codec.encode S.update_codec op))
    ops
  @ [ (S.name ^ " state", Codec.encode S.state_codec st) ]

let specs =
  let open Onll_specs in
  List.concat
    [
      spec (module Counter)
        Counter.[ Increment; Add 0; Add (-1); Add max_int; Add min_int ];
      spec (module Register) Register.[ Write 7; Write (-3) ];
      spec (module Queue_spec) Queue_spec.[ Enqueue 5; Enqueue 6; Dequeue ];
      spec (module Stack_spec) Stack_spec.[ Push 3; Push 4; Pop ];
      spec (module Set_spec) Set_spec.[ Insert 9; Insert (-9); Remove 9 ];
      spec (module Deque)
        Deque.[ Push_front 1; Push_back 2; Push_back 3; Pop_front; Pop_back ];
      spec (module Pqueue) Pqueue.[ Insert (3, 4); Insert (1, 2); Extract_min ];
      spec (module Kv)
        Kv.[ Put ("k", "v"); Put ("", ""); Put ("key", "value"); Delete "k" ];
      spec (module Ledger)
        Ledger.
          [
            Open "a";
            Open "b";
            Deposit ("a", 10);
            Withdraw ("a", 3);
            Transfer ("a", "b", 5);
          ];
    ]

let protocol =
  let open Onll_serve.Protocol in
  let req name r = ("req " ^ name, Codec.encode req_codec r)
  and resp name r = ("resp " ^ name, Codec.encode resp_codec r) in
  let framed =
    let b = Buffer.create 64 in
    write_frame b req_codec (Submit { seq = 2; deadline_ns = 9; op = "x" });
    Buffer.contents b
  in
  [
    req "hello eo" (Hello { client = 3; token = "t"; tier = T_exactly_once });
    req "hello strict" (Hello { client = 0; token = ""; tier = T_strict });
    req "hello stale"
      (Hello { client = 1; token = "tok"; tier = T_staleness 8 });
    req "submit" (Submit { seq = 1; deadline_ns = 0; op = "op" });
    req "fetch" (Fetch { op = "" });
    req "ping" Ping;
    req "bye" Bye;
    resp "attached none" (Attached { next_seq = 0; resolution = W_none });
    resp "attached applied"
      (Attached { next_seq = 5; resolution = W_applied 4 });
    resp "attached reinvoked"
      (Attached { next_seq = 7; resolution = W_reinvoked (1, 2, 3) });
    resp "attached refused"
      (Attached { next_seq = 6; resolution = W_refused 5 });
    resp "attached unresolved"
      (Attached { next_seq = 8; resolution = W_unresolved 6 });
    resp "acked" (Acked { seq = 1; value = -1 });
    resp "got" (Got 42);
    resp "pong" Pong;
    resp "gone" Gone;
    ("frame submit", framed);
  ]
  @ List.mapi
      (fun i r ->
        ( Printf.sprintf "resp refused %d" i,
          Codec.encode resp_codec (Refused r) ))
      [
        R_overloaded;
        R_timeout;
        R_degraded;
        R_draining;
        R_bad_seq 3;
        R_bad_token;
        R_bad_client;
        R_not_attached;
        R_bad_op;
        R_bad_tier;
      ]

let client_table =
  let module Ct = Onll_core.Client_table.Make (Onll_specs.Counter) in
  let ops =
    Ct.
      [
        Tracked { client = 2; seq = 7; op = Onll_specs.Counter.Add 3 };
        Untracked Onll_specs.Counter.Increment;
        Tracked { client = 1; seq = 1; op = Onll_specs.Counter.Increment };
      ]
  in
  let st = List.fold_left (fun st op -> fst (Ct.apply st op)) Ct.initial ops in
  List.mapi
    (fun i op ->
      ( Printf.sprintf "client-table update %d" i,
        Codec.encode Ct.update_codec op ))
    ops
  @ [ ("client-table state", Codec.encode Ct.state_codec st) ]

let records (type u s) name
    (module S : Onll_core.Spec.S with type update_op = u and type state = s)
    (ops : u list) =
  let module M =
    (val Onll_machine.Sim.machine (Onll_machine.Sim.create ~max_processes:3 ()))
  in
  let module R = Onll_core.Record_log.Make (M) (S) in
  let id id_proc id_seq = { Onll_core.Record_log.id_proc; id_seq } in
  let st = List.fold_left (fun st op -> fst (S.apply st op)) S.initial ops in
  let envs =
    List.mapi
      (fun i op ->
        let e = R.envelope (id (i mod 3) (10 + i)) op in
        if i = 1 then { e with R.e_txn = Some "txn" } else e)
      ops
  in
  let r v = Codec.encode R.record_codec v in
  [
    (name ^ " record ops", r (R.Ops { exec_idx = 12; envs }));
    (name ^ " record ops empty", r (R.Ops { exec_idx = 0; envs = [] }));
    ( name ^ " record checkpoint",
      r
        (R.Checkpoint
           {
             upto_idx = 11;
             state = { R.st; floors = [| 3; 0; 5 |]; dropped = [] };
           }) );
    ( name ^ " record checkpoint dropped",
      r
        (R.Checkpoint
           {
             upto_idx = 4;
             state =
               { R.st; floors = [| 1; 2; 3 |]; dropped = [ (1, 2); (0, 9) ] };
           }) );
  ]

let cases =
  specs @ protocol @ client_table
  @ records "kv"
      (module Onll_specs.Kv)
      Onll_specs.Kv.[ Put ("a", "1"); Delete "b"; Put ("c", "") ]
  @ records "counter"
      (module Onll_specs.Counter)
      Onll_specs.Counter.[ Increment; Add 5 ]

let golden =
  [
    ("counter update 0",
     "00000000000000000000000000000000");
    ("counter update 1",
     "010000000000000008000000000000000000000000000000");
    ("counter update 2",
     "01000000000000000800000000000000ffffffffffffffff");
    ("counter update 3",
     "01000000000000000800000000000000ffffffffffffff3f");
    ("counter update 4",
     "0100000000000000080000000000000000000000000000c0");
    ("counter state",
     "ffffffffffffffff");
    ("register update 0",
     "0700000000000000");
    ("register update 1",
     "fdffffffffffffff");
    ("register state",
     "fdffffffffffffff");
    ("queue update 0",
     "000000000000000008000000000000000500000000000000");
    ("queue update 1",
     "000000000000000008000000000000000600000000000000");
    ("queue update 2",
     "01000000000000000000000000000000");
    ("queue state",
     "01000000000000000600000000000000");
    ("stack update 0",
     "000000000000000008000000000000000300000000000000");
    ("stack update 1",
     "000000000000000008000000000000000400000000000000");
    ("stack update 2",
     "01000000000000000000000000000000");
    ("stack state",
     "01000000000000000300000000000000");
    ("set update 0",
     "000000000000000008000000000000000900000000000000");
    ("set update 1",
     "00000000000000000800000000000000f7ffffffffffffff");
    ("set update 2",
     "010000000000000008000000000000000900000000000000");
    ("set state",
     "0100000000000000f7ffffffffffffff");
    ("deque update 0",
     "000000000000000008000000000000000100000000000000");
    ("deque update 1",
     "010000000000000008000000000000000200000000000000");
    ("deque update 2",
     "010000000000000008000000000000000300000000000000");
    ("deque update 3",
     "02000000000000000000000000000000");
    ("deque update 4",
     "03000000000000000000000000000000");
    ("deque state",
     "01000000000000000200000000000000");
    ("pqueue update 0",
     "0000000000000000100000000000000003000000000000000400000000000000");
    ("pqueue update 1",
     "0000000000000000100000000000000001000000000000000200000000000000");
    ("pqueue update 2",
     "01000000000000000000000000000000");
    ("pqueue state",
     "01000000000000000300000000000000040000000000000000000000000000000200000000000000");
    ("kv update 0",
     "0000000000000000120000000000000001000000000000006b010000000000000076");
    ("kv update 1",
     "0000000000000000100000000000000000000000000000000000000000000000");
    ("kv update 2",
     "0000000000000000180000000000000003000000000000006b6579050000000000000076616c7565");
    ("kv update 3",
     "0100000000000000090000000000000001000000000000006b");
    ("kv state",
     "02000000000000000000000000000000000000000000000003000000000000006b6579050000000000000076616c7565");
    ("ledger update 0",
     "00000000000000000900000000000000010000000000000061");
    ("ledger update 1",
     "00000000000000000900000000000000010000000000000062");
    ("ledger update 2",
     "010000000000000011000000000000000100000000000000610a00000000000000");
    ("ledger update 3",
     "020000000000000011000000000000000100000000000000610300000000000000");
    ("ledger update 4",
     "03000000000000001a000000000000000100000000000000610100000000000000620500000000000000");
    ("ledger state",
     "020000000000000001000000000000006102000000000000000100000000000000620500000000000000");
    ("req hello eo",
     "00000000000000002100000000000000030000000000000001000000000000007400000000000000000000000000000000");
    ("req hello strict",
     "000000000000000020000000000000000000000000000000000000000000000001000000000000000000000000000000");
    ("req hello stale",
     "00000000000000002b0000000000000001000000000000000300000000000000746f6b020000000000000008000000000000000800000000000000");
    ("req submit",
     "01000000000000001a000000000000000100000000000000000000000000000002000000000000006f70");
    ("req fetch",
     "020000000000000008000000000000000000000000000000");
    ("req ping",
     "03000000000000000000000000000000");
    ("req bye",
     "04000000000000000000000000000000");
    ("resp attached none",
     "00000000000000001800000000000000000000000000000000000000000000000000000000000000");
    ("resp attached applied",
     "000000000000000020000000000000000500000000000000010000000000000008000000000000000400000000000000");
    ("resp attached reinvoked",
     "00000000000000003000000000000000070000000000000002000000000000001800000000000000010000000000000002000000000000000300000000000000");
    ("resp attached refused",
     "000000000000000020000000000000000600000000000000030000000000000008000000000000000500000000000000");
    ("resp attached unresolved",
     "000000000000000020000000000000000800000000000000040000000000000008000000000000000600000000000000");
    ("resp acked",
     "010000000000000010000000000000000100000000000000ffffffffffffffff");
    ("resp got",
     "030000000000000008000000000000002a00000000000000");
    ("resp pong",
     "04000000000000000000000000000000");
    ("resp gone",
     "05000000000000000000000000000000");
    ("frame submit",
     "000000290100000000000000190000000000000002000000000000000900000000000000010000000000000078");
    ("resp refused 0",
     "0200000000000000100000000000000000000000000000000000000000000000");
    ("resp refused 1",
     "0200000000000000100000000000000001000000000000000000000000000000");
    ("resp refused 2",
     "0200000000000000100000000000000002000000000000000000000000000000");
    ("resp refused 3",
     "0200000000000000100000000000000003000000000000000000000000000000");
    ("resp refused 4",
     "02000000000000001800000000000000040000000000000008000000000000000300000000000000");
    ("resp refused 5",
     "0200000000000000100000000000000005000000000000000000000000000000");
    ("resp refused 6",
     "0200000000000000100000000000000006000000000000000000000000000000");
    ("resp refused 7",
     "0200000000000000100000000000000007000000000000000000000000000000");
    ("resp refused 8",
     "0200000000000000100000000000000008000000000000000000000000000000");
    ("resp refused 9",
     "0200000000000000100000000000000009000000000000000000000000000000");
    ("client-table update 0",
     "0000000000000000280000000000000002000000000000000700000000000000010000000000000008000000000000000300000000000000");
    ("client-table update 1",
     "0100000000000000100000000000000000000000000000000000000000000000");
    ("client-table update 2",
     "000000000000000020000000000000000100000000000000010000000000000000000000000000000000000000000000");
    ("client-table state",
     "050000000000000002000000000000000100000000000000010000000000000002000000000000000700000000000000");
    ("kv record ops",
     "0000000000000000aa000000000000000c00000000000000030000000000000000000000000000000a00000000000000000000000000000012000000000000000100000000000000610100000000000000310001000000000000000b000000000000000100000000000000090000000000000001000000000000006201030000000000000074786e02000000000000000c0000000000000000000000000000001100000000000000010000000000000063000000000000000000");
    ("kv record ops empty",
     "0000000000000000100000000000000000000000000000000000000000000000");
    ("kv record checkpoint",
     "010000000000000053000000000000000b00000000000000020000000000000001000000000000006101000000000000003101000000000000006300000000000000000300000000000000030000000000000000000000000000000500000000000000");
    ("kv record checkpoint dropped",
     "0100000000000000730000000000000004000000000000000200000000000000010000000000000061010000000000000031010000000000000063000000000000000007000000000000000100000000000000020000000000000003000000000000000100000000000000020000000000000000000000000000000900000000000000");
    ("counter record ops",
     "000000000000000065000000000000000c00000000000000020000000000000000000000000000000a00000000000000000000000000000000000000000000000001000000000000000b0000000000000001000000000000000800000000000000050000000000000001030000000000000074786e");
    ("counter record ops empty",
     "0000000000000000100000000000000000000000000000000000000000000000");
    ("counter record checkpoint",
     "010000000000000030000000000000000b0000000000000006000000000000000300000000000000030000000000000000000000000000000500000000000000");
    ("counter record checkpoint dropped",
     "010000000000000050000000000000000400000000000000060000000000000007000000000000000100000000000000020000000000000003000000000000000100000000000000020000000000000000000000000000000900000000000000");
  ]

let test_golden () =
  Alcotest.(check int)
    "every case pinned" (List.length cases) (List.length golden);
  List.iter
    (fun (name, bytes) ->
      match List.assoc_opt name golden with
      | None -> Alcotest.failf "%s: no golden bytes" name
      | Some want -> Alcotest.(check string) name want (hex bytes))
    cases

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter
      (fun (name, bytes) ->
        Printf.printf "    (%S,\n     %S);\n" name (hex bytes))
      cases
  else
    Alcotest.run "codec_golden"
      [
        ( "golden",
          [ Alcotest.test_case "encodings byte for byte" `Quick test_golden ] );
      ]
