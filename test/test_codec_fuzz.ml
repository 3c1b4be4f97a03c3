(* Fuzz/property tests for the decode paths that face possibly-corrupt
   durable bytes. The contract under test: arbitrary garbage must surface
   as a TYPED outcome — [Codec.Decode_error] from the serialization layer,
   a salvage report (never an exception) from [Plog.recover] — because a
   segfault or an untyped exception during recovery would turn recoverable
   media damage into an unrecoverable crash loop. Everything is
   Splitmix-seeded, so any failure replays from its trial number. *)

open Onll_machine
module Codec = Onll_util.Codec
module Sm = Onll_util.Splitmix

let check = Alcotest.check
let rand_bytes rng len = String.init len (fun _ -> Char.chr (Sm.int rng 256))

(* The codec battery: every primitive and combinator, the codecs the
   object specifications persist through the logs, the record codec
   those logs hold, and the wire protocol's, which read bytes from
   sockets. Each comes with sample values, whose encodings the mutation
   tests start from. [canonical] says whether every input that decodes
   is the encoding of its value: not for map states, which accept
   bindings in any order and store them sorted, nor for the set state,
   which accepts duplicates. *)
type packed =
  | P : {
      name : string;
      codec : 'a Codec.t;
      samples : 'a list;
      canonical : bool;
    }
      -> packed

let p ?(canonical = true) name codec samples =
  P { name; codec; samples; canonical }

(* A specification's update codec with the given updates, and its state
   codec with the state those updates build. *)
let spec (type u) ?canonical
    (module S : Onll_core.Spec.S with type update_op = u) (ops : u list) =
  let st = List.fold_left (fun st op -> fst (S.apply st op)) S.initial ops in
  [
    p (S.name ^ "-update") S.update_codec ops;
    p ?canonical (S.name ^ "-state") S.state_codec [ S.initial; st ];
  ]

(* The record codec over a simulated machine, for counter updates. *)
let record =
  let module M = (val Sim.machine (Sim.create ~max_processes:2 ())) in
  let module R = Onll_core.Record_log.Make (M) (Onll_specs.Counter) in
  let id id_proc id_seq = { Onll_core.Record_log.id_proc; id_seq } in
  let module C = Onll_specs.Counter in
  p "record" R.record_codec
    [
      R.Ops
        {
          exec_idx = 9;
          envs =
            [
              R.envelope (id 1 4) (C.Add 7);
              { (R.envelope (id 0 2) C.Increment) with e_txn = Some "tx" };
            ];
        };
      R.Checkpoint
        {
          upto_idx = 7;
          state = { R.st = 5; floors = [| 3; 5 |]; dropped = [ (1, 2) ] };
        };
    ]

let client_table =
  let module Ct = Onll_core.Client_table.Make (Onll_specs.Counter) in
  p "client-table-update" Ct.update_codec
    Ct.
      [
        Tracked { client = 3; seq = 8; op = Onll_specs.Counter.Add (-2) };
        Untracked Onll_specs.Counter.Increment;
      ]

let codecs =
  let open Onll_specs in
  let module Pr = Onll_serve.Protocol in
  [
    p "unit" Codec.unit [ () ];
    p "bool" Codec.bool [ true; false ];
    p "int" Codec.int [ 12345678; -1; max_int; min_int ];
    p "int32" Codec.int32 [ 7l; Int32.min_int ];
    p "int64" Codec.int64 [ 7L; Int64.min_int ];
    p "float" Codec.float [ 1.5; -0. ];
    p "char" Codec.char [ 'x' ];
    p "string" Codec.string [ "the quick brown fox"; "" ];
    p "pair" (Codec.pair Codec.int Codec.string) [ (42, "payload") ];
    p "triple"
      (Codec.triple Codec.bool Codec.int Codec.string)
      [ (true, 3, "three") ];
    p "list" (Codec.list Codec.string) [ [ "a"; "bb"; "ccc" ]; [] ];
    p "array" (Codec.array Codec.int) [ [| 1; 2; 3; 4 |] ];
    p "option" (Codec.option Codec.string) [ Some "present"; None ];
    record;
    client_table;
    p "protocol-req" Pr.req_codec
      Pr.
        [
          Hello { client = 1; token = "tok"; tier = T_staleness 4 };
          Hello { client = 2; token = ""; tier = T_exactly_once };
          Submit { seq = 3; deadline_ns = 100; op = "op" };
          Fetch { op = "f" };
          Ping;
          Bye;
        ];
    p "protocol-resp" Pr.resp_codec
      Pr.
        [
          Attached { next_seq = 4; resolution = W_reinvoked (1, 2, 3) };
          Attached { next_seq = 1; resolution = W_none };
          Acked { seq = 2; value = -5 };
          Refused (R_bad_seq 9);
          Refused R_overloaded;
          Got 3;
          Pong;
          Gone;
        ];
  ]
  @ spec (module Counter) Counter.[ Increment; Add 5 ]
  @ spec (module Queue_spec) Queue_spec.[ Enqueue 1; Enqueue 2; Dequeue ]
  @ spec ~canonical:false (module Kv)
      Kv.[ Put ("key", "value"); Delete "k"; Put ("a", "") ]
  @ spec (module Stack_spec) Stack_spec.[ Push 1; Push 2; Pop ]
  @ spec ~canonical:false (module Set_spec) Set_spec.[ Insert 4; Remove 2 ]
  @ spec ~canonical:false (module Ledger)
      Ledger.[ Open "acct"; Deposit ("acct", 100); Transfer ("acct", "b", 5) ]
  @ spec (module Deque) Deque.[ Push_front 1; Push_back 2; Pop_front; Pop_back ]
  @ spec (module Pqueue) Pqueue.[ Insert (3, 4); Insert (1, 2); Extract_min ]

let decode_is_typed name c s =
  match Codec.decode c s with
  | _ -> ()
  | exception Codec.Decode_error _ -> ()
  | exception e ->
      Alcotest.failf "%s: untyped exception %s decoding %d bytes %S" name
        (Printexc.to_string e) (String.length s) s

let test_decode_arbitrary_bytes () =
  let rng = Sm.create 0xC0DEC in
  List.iter
    (fun (P { name; codec; _ }) ->
      for _ = 1 to 400 do
        decode_is_typed name codec (rand_bytes rng (Sm.int rng 64))
      done)
    codecs

(* Harder inputs than pure noise: REAL encodings (as a torn or rotted log
   entry or a garbled frame would leave them), truncated, extended or
   bit-flipped. *)
let mutate rng s =
  match Sm.int rng 3 with
  | 0 -> String.sub s 0 (Sm.int rng (String.length s + 1)) (* truncate *)
  | 1 -> s ^ rand_bytes rng (1 + Sm.int rng 8) (* trailing garbage *)
  | _ ->
      if s = "" then s
      else
        let i = Sm.int rng (String.length s) and bit = Sm.int rng 8 in
        String.mapi
          (fun j c ->
            if i = j then Char.chr (Char.code c lxor (1 lsl bit)) else c)
          s

let mutated rng (P { codec; samples; _ }) =
  List.concat_map
    (fun v ->
      let enc = Codec.encode codec v in
      List.init 200 (fun _ -> mutate rng enc))
    samples

let test_decode_mutated_valid_encodings () =
  let rng = Sm.create 0xBADF00D in
  List.iter
    (fun (P { name; codec; _ } as pk) ->
      List.iter (decode_is_typed name codec) (mutated rng pk))
    codecs

(* Whatever decodes re-encodes to the bytes it was decoded from: no two
   inputs decode to the same value, so a frame from a socket or a log
   means one thing. Over arbitrary bytes and mutated encodings. *)
let prop_canonical =
  let canonical = List.filter (fun (P { canonical; _ }) -> canonical) codecs in
  QCheck.Test.make ~name:"decodes re-encode to the same bytes" ~count:40
    QCheck.small_nat (fun seed ->
      let rng = Sm.create seed in
      List.for_all
        (fun (P { name; codec; _ } as pk) ->
          List.for_all
            (fun s ->
              match Codec.decode codec s with
              | exception Codec.Decode_error _ -> true
              | v ->
                  Codec.encode codec v = s
                  || QCheck.Test.fail_reportf "%s: %S decodes, re-encodes as %S"
                       name s (Codec.encode codec v))
            (List.init 50 (fun _ -> rand_bytes rng (Sm.int rng 40))
            @ mutated rng pk))
        canonical)

let test_roundtrip_still_holds () =
  (* the fuzz must not have been vacuous: honest encodings still decode *)
  let rng = Sm.create 0x5EED in
  for _ = 1 to 200 do
    let v = (Sm.int rng 1000, rand_bytes rng (Sm.int rng 32)) in
    let c = Codec.pair Codec.int Codec.string in
    check
      Alcotest.(pair int string)
      "roundtrip" v
      (Codec.decode c (Codec.encode c v))
  done

(* A forged element count is rejected as soon as it is read, before
   anything is allocated for it: 2^40 elements would not fit in memory,
   and 2^20 would cost megabytes before the input ran out. *)
let test_forged_counts () =
  let forged n rest =
    let b = Buffer.create 16 in
    Buffer.add_int64_le b (Int64.of_int n);
    Buffer.add_string b rest;
    Buffer.contents b
  in
  let must_fail : type a. string -> a Codec.t -> string -> unit =
   fun name c s ->
    (* an empty minor heap: a minor collection inside the decode would
       count the whole heap's contents as allocated *)
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    (match Codec.decode c s with
    | _ -> Alcotest.failf "%s: a forged count decoded" name
    | exception Codec.Decode_error _ -> ());
    let spent = Gc.allocated_bytes () -. before in
    if spent > 65536. then
      Alcotest.failf "%s: %.0f bytes allocated before the count failed" name
        spent
  in
  List.iter
    (fun n ->
      let rest = Codec.encode Codec.int 7 in
      must_fail "array" (Codec.array Codec.int) (forged n rest);
      must_fail "array of pairs"
        (Codec.array (Codec.pair Codec.string Codec.string))
        (forged n rest);
      must_fail "list" (Codec.list Codec.int) (forged n rest);
      must_fail "kv-state" Onll_specs.Kv.state_codec (forged n rest);
      must_fail "ledger-state" Onll_specs.Ledger.state_codec (forged n rest))
    [ 1 lsl 40; max_int; 1 lsl 20; 2 ];
  (* zero-width elements take no input, so any count of them fits *)
  check Alcotest.int "array of units roundtrips" 5
    (Array.length
       (Codec.decode (Codec.array Codec.unit)
          (Codec.encode (Codec.array Codec.unit) (Array.make 5 ()))))

(* A record's body is decoded where it lies in the payload, bounded by
   its frame: every truncation and every single-bit flip of a kv Ops
   record and of a kv checkpoint still fails typed, and the honest
   encodings round-trip. *)
let test_record_bodies_in_place () =
  let module M = (val Sim.machine (Sim.create ~max_processes:2 ())) in
  let module Kv = Onll_specs.Kv in
  let module R = Onll_core.Record_log.Make (M) (Kv) in
  let id id_proc id_seq = { Onll_core.Record_log.id_proc; id_seq } in
  let st =
    List.fold_left
      (fun st k -> fst (Kv.apply st (Kv.Put (k, k ^ "!"))))
      Kv.initial [ "b"; "a"; "c" ]
  in
  let records =
    [
      R.Ops
        {
          exec_idx = 9;
          envs =
            [
              R.envelope (id 1 4) (Kv.Put ("k", "v"));
              { (R.envelope (id 0 2) (Kv.Delete "a")) with e_txn = Some "tx" };
            ];
        };
      R.Checkpoint
        {
          upto_idx = 7;
          state = { R.st; floors = [| 3; 5 |]; dropped = [ (1, 2) ] };
        };
    ]
  in
  List.iter
    (fun r ->
      let enc = Codec.encode R.record_codec r in
      check Alcotest.string "honest roundtrip" enc
        (Codec.encode R.record_codec (Codec.decode R.record_codec enc));
      for len = 0 to String.length enc - 1 do
        decode_is_typed "record prefix" R.record_codec (String.sub enc 0 len)
      done;
      String.iteri
        (fun i c ->
          for bit = 0 to 7 do
            decode_is_typed "record bit flip" R.record_codec
              (String.mapi
                 (fun j d ->
                   if i = j then Char.chr (Char.code c lxor (1 lsl bit)) else d)
                 enc)
          done)
        enc)
    records

(* {1 Plog salvage under arbitrary corruption} *)

(* Property: whatever bytes media damage leaves in the regions — headers
   included, every replica included — [recover] returns a report rather
   than raising, [entries] then succeeds, and a second recovery is a fixed
   point (no new quarantine, repair or truncation). *)
let test_plog_salvage_never_raises () =
  let rng = Sm.create 0xFA175 in
  for trial = 1 to 120 do
    let replicas = 1 + (trial mod 2) in
    let sim = Sim.create ~max_processes:1 () in
    let module M = (val Sim.machine sim) in
    let module P = Onll_plog.Plog.Make (M) in
    let log = P.create ~name:"l" ~capacity:1024 ~replicas () in
    for _ = 1 to Sm.int rng 6 do
      P.append log (rand_bytes rng (1 + Sm.int rng 24))
    done;
    List.iter
      (fun name ->
        let r =
          Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) name)
        in
        let size = Onll_nvm.Memory.Region.size r in
        for _ = 1 to Sm.int rng 24 do
          Onll_nvm.Memory.Region.corrupt r ~off:(Sm.int rng size) ~len:1
            ~f:(fun _ _ -> Char.chr (Sm.int rng 256))
        done)
      (P.region_names log);
    Onll_nvm.Memory.crash (Sim.memory sim)
      ~policy:Onll_nvm.Crash_policy.Drop_all;
    let recovered =
      match P.recover log with
      | _, payloads -> payloads
      | exception e ->
          Alcotest.failf "trial %d: recover raised %s" trial
            (Printexc.to_string e)
    in
    let entries1 =
      match P.entries log with
      | e -> e
      | exception e ->
          Alcotest.failf "trial %d: entries raised %s" trial
            (Printexc.to_string e)
    in
    check Alcotest.(list string)
      (Printf.sprintf "trial %d: recover returns what entries reads" trial)
      entries1 recovered;
    let r2, _ = P.recover log in
    check Alcotest.(list string)
      (Printf.sprintf "trial %d: recovery is a fixed point" trial)
      entries1 (P.entries log);
    check Alcotest.int
      (Printf.sprintf "trial %d: nothing newly quarantined" trial)
      0 r2.Onll_plog.Plog.quarantined_spans;
    check Alcotest.int
      (Printf.sprintf "trial %d: nothing newly repaired" trial)
      0 r2.Onll_plog.Plog.repaired_entries;
    check Alcotest.int
      (Printf.sprintf "trial %d: nothing newly truncated" trial)
      0 r2.Onll_plog.Plog.torn_tail_bytes;
    (* and the log still accepts appends *)
    P.append log "after-salvage";
    check Alcotest.bool
      (Printf.sprintf "trial %d: appends continue" trial)
      true
      (List.exists (( = ) "after-salvage") (P.entries log))
  done

let test_plog_scrub_never_raises () =
  (* the same property for the ONLINE half: scrub a live corrupted log *)
  let rng = Sm.create 0x5C12B in
  for trial = 1 to 60 do
    let sim = Sim.create ~max_processes:1 () in
    let module M = (val Sim.machine sim) in
    let module P = Onll_plog.Plog.Make (M) in
    let log = P.create ~name:"l" ~capacity:1024 ~replicas:2 () in
    for _ = 1 to 1 + Sm.int rng 5 do
      P.append log (rand_bytes rng (1 + Sm.int rng 24))
    done;
    List.iter
      (fun name ->
        let r =
          Option.get (Onll_nvm.Memory.find_region (Sim.memory sim) name)
        in
        let size = Onll_nvm.Memory.Region.size r in
        for _ = 1 to Sm.int rng 12 do
          Onll_nvm.Memory.Region.corrupt r ~off:(Sm.int rng size) ~len:1
            ~f:(fun _ _ -> Char.chr (Sm.int rng 256))
        done)
      (P.region_names log);
    (match P.scrub log with
    | _ -> ()
    | exception e ->
        Alcotest.failf "trial %d: scrub raised %s" trial
          (Printexc.to_string e));
    (* a second scrub of the (now repaired or quarantined) log is clean *)
    let s2 = P.scrub log in
    check Alcotest.int
      (Printf.sprintf "trial %d: second scrub repairs nothing" trial)
      0 s2.Onll_plog.Plog.scrub_repaired_entries
  done

let () =
  Alcotest.run "codec_fuzz"
    [
      ( "codec",
        [
          Alcotest.test_case "arbitrary bytes -> typed errors only" `Quick
            test_decode_arbitrary_bytes;
          Alcotest.test_case "mutated encodings -> typed errors only" `Quick
            test_decode_mutated_valid_encodings;
          Alcotest.test_case "honest roundtrip unharmed" `Quick
            test_roundtrip_still_holds;
          Alcotest.test_case "forged counts -> typed errors" `Quick
            test_forged_counts;
          Alcotest.test_case "record bodies in place -> typed errors" `Quick
            test_record_bodies_in_place;
          QCheck_alcotest.to_alcotest prop_canonical;
        ] );
      ( "salvage",
        [
          Alcotest.test_case "recover never raises, converges" `Quick
            test_plog_salvage_never_raises;
          Alcotest.test_case "scrub never raises, converges" `Quick
            test_plog_scrub_never_raises;
        ] );
    ]
