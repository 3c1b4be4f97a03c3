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

(* The codec battery: every primitive and combinator, plus the codecs the
   object specifications actually persist through the logs. *)
type packed = P : string * 'a Codec.t -> packed

let codecs =
  [
    P ("unit", Codec.unit);
    P ("bool", Codec.bool);
    P ("int", Codec.int);
    P ("int32", Codec.int32);
    P ("int64", Codec.int64);
    P ("float", Codec.float);
    P ("char", Codec.char);
    P ("string", Codec.string);
    P ("pair", Codec.pair Codec.int Codec.string);
    P ("triple", Codec.triple Codec.bool Codec.int Codec.string);
    P ("list", Codec.list Codec.string);
    P ("array", Codec.array Codec.int);
    P ("option", Codec.option Codec.string);
    P ("counter-update", Onll_specs.Counter.update_codec);
    P ("counter-state", Onll_specs.Counter.state_codec);
    P ("queue-update", Onll_specs.Queue_spec.update_codec);
    P ("queue-state", Onll_specs.Queue_spec.state_codec);
    P ("kv-update", Onll_specs.Kv.update_codec);
    P ("kv-state", Onll_specs.Kv.state_codec);
    P ("stack-update", Onll_specs.Stack_spec.update_codec);
    P ("set-update", Onll_specs.Set_spec.update_codec);
    P ("ledger-update", Onll_specs.Ledger.update_codec);
    P ("ledger-state", Onll_specs.Ledger.state_codec);
  ]

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
    (fun (P (name, c)) ->
      for _ = 1 to 400 do
        decode_is_typed name c (rand_bytes rng (Sm.int rng 64))
      done)
    codecs

let test_decode_mutated_valid_encodings () =
  (* Harder inputs than pure noise: start from REAL encodings (as a torn or
     rotted log entry would) and truncate, extend or bit-flip them. *)
  let rng = Sm.create 0xBADF00D in
  let mutate s =
    match Sm.int rng 3 with
    | 0 -> String.sub s 0 (Sm.int rng (String.length s + 1)) (* truncate *)
    | 1 -> s ^ rand_bytes rng (1 + Sm.int rng 8) (* trailing garbage *)
    | _ ->
        if s = "" then s
        else
          String.mapi
            (fun i c ->
              if i = Sm.int rng (String.length s) then
                Char.chr (Char.code c lxor (1 lsl Sm.int rng 8))
              else c)
            s
  in
  let exercise : type a. string -> a Codec.t -> a -> unit =
   fun name c v ->
    let enc = Codec.encode c v in
    for _ = 1 to 200 do
      decode_is_typed name c (mutate enc)
    done
  in
  exercise "int" Codec.int 12345678;
  exercise "string" Codec.string "the quick brown fox";
  exercise "pair" (Codec.pair Codec.int Codec.string) (42, "payload");
  exercise "list" (Codec.list Codec.string) [ "a"; "bb"; "ccc" ];
  exercise "array" (Codec.array Codec.int) [| 1; 2; 3; 4 |];
  exercise "option" (Codec.option Codec.string) (Some "present");
  exercise "kv-update" Onll_specs.Kv.update_codec
    (Onll_specs.Kv.Put ("key", "value"));
  exercise "ledger-update" Onll_specs.Ledger.update_codec
    (Onll_specs.Ledger.Deposit ("acct", 100))

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
        ] );
      ( "salvage",
        [
          Alcotest.test_case "recover never raises, converges" `Quick
            test_plog_salvage_never_raises;
          Alcotest.test_case "scrub never raises, converges" `Quick
            test_plog_scrub_never_raises;
        ] );
    ]
