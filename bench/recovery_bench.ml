(** E6 — recovery cost and memory reclamation (§8 checkpoints and pruning).

    Crash an object after H updates and measure what recovery must do, with
    and without periodic checkpoints: wall time, live log bytes scanned, and
    the size of the rebuilt execution trace. Expected shape: without
    checkpoints everything is O(H); with a checkpoint every k updates, all
    three collapse to O(k). A second table holds H and the checkpoint
    interval fixed and varies the log's capacity. The log's header records
    a written bound, at most 64 KiB past its last append, and recovery's
    clean-end check stops there, so the table is flat: the same number of
    loads at 64 KiB, 4 MiB and 64 MiB, of the same bytes wherever the
    bound lies below the log end (a 64 KiB log's end cuts the reserve
    short, so it loads fewer). The run asserts it.

    Each run observes its own crash/recovery through an {!Onll_obs.Sink.t}:
    the machine emits the crash event, [recover] emits a recovery event
    carrying the number of replayed operations, and the replay count is
    cross-checked against the rebuilt trace size. Every run also records
    the recovery's durable loads and asserts its load accounting: each
    live log byte loaded exactly once, and no load longer than the 64 KiB
    chunk of the clean-end check — so a walk that loads records twice
    fails here, not as a timing. *)

open Onll_machine
module Cs = Onll_specs.Counter

type sample = {
  recovery_ms : float;
  live_log_bytes : int;
  trace_nodes : int;
  replayed_ops : int;  (** from the sink's ["recovery.ops"] counter *)
  value : int;
  loads : int;  (** durable loads the recovery made *)
  loaded_bytes : int;  (** bytes those loads covered *)
}

let run_one ~log_capacity ~history ~checkpoint_every =
  let sink = Onll_obs.Sink.make () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let module M0 = (val Sim.machine sim) in
  let module M = Test_support.Machine_wrap.Counting_loads (M0) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj =
    C.make { Onll_core.Onll.Config.default with log_capacity; sink }
  in
  for k = 1 to history do
    ignore (C.update obj Cs.Increment);
    if checkpoint_every > 0 && k mod checkpoint_every = 0 then begin
      ignore (C.checkpoint obj);
      C.prune obj ~below:((C.snapshot obj).Onll_core.Onll.Snapshot.latest_available_idx)
    end
  done;
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  let live_log_bytes =
    let snap = C.snapshot obj in
    List.fold_left
      (fun a l -> a + l.Onll_core.Onll.Snapshot.live_bytes)
      0 snap.Onll_core.Onll.Snapshot.logs
  in
  M.spans := [];
  let (), dt = Harness.time_it (fun () -> C.recover obj) in
  let spans = !M.spans in
  (match (C.snapshot obj).Onll_core.Onll.Snapshot.logs with
  | [ l ] ->
      let tail = 64 + l.Onll_core.Onll.Snapshot.used_bytes in
      let head = tail - l.Onll_core.Onll.Snapshot.live_bytes in
      (* the counter's records are far below one chunk *)
      let complaints =
        Test_support.Machine_wrap.not_loaded_once ~lo:head ~hi:tail spans
        @ Test_support.Machine_wrap.loads_over ~max_load:65536 spans
      in
      if complaints <> [] then
        failwith
          (Printf.sprintf
             "E6 load accounting (capacity %d): %d faults, first %s"
             log_capacity (List.length complaints)
             (String.concat "; " (List.filteri (fun i _ -> i < 3) complaints)))
  | _ -> assert false);
  let reg = Onll_obs.Sink.registry sink in
  assert (Onll_obs.Metrics.counter_value reg "crashes" = 1);
  assert (Onll_obs.Metrics.counter_value reg "recoveries" = 1);
  {
    recovery_ms = dt *. 1e3;
    live_log_bytes;
    trace_nodes = List.length (C.trace_nodes obj);
    replayed_ops = Onll_obs.Metrics.counter_value reg "recovery.ops";
    value = C.read obj Cs.Get;
    loads = List.length spans;
    loaded_bytes = List.fold_left (fun n (_, len) -> n + len) 0 spans;
  }

(* The kv row: a checkpointed kv object of [kv_keys] keys on the native
   machine, whose recovery is mostly the decode of its checkpointed
   state. *)
module Kv = Onll_specs.Kv

let kv_keys = 100_000
let kv_recoveries = 3

(* The state decode reads the bindings in order straight into the map:
   the key and value strings (5 words), one 3-word leaf and, a tenth as
   often, a branch block of about 12 words (these keys' last digits
   split 10 ways), 9.3 words per binding. The ceiling is 10% over.
   (Counted exactly since a minor collection brackets the decode.) *)
let kv_decode_words_max = 10.2

(* A checkpoint record of the state is written once, into chunks, and
   copied once into the result: about twice its bytes while the domain
   has no chunks to reuse, its bytes once after an encode as long (here,
   the object's own checkpoint). Encoding the body apart and copying it
   into the frame allocated 5.5 times them. *)
let kv_encode_bytes_max = 2.1

(* The recovery walk reads a record's 16-byte header with two 8-byte
   loads, which the machine returns boxed (3 words each), and copies its
   payload out (14 words for the ~96-byte one-envelope records below);
   nothing else it does per record allocates: the live-entry account
   keeps its storage, and the checksum is taken and compared unboxed.
   Before, the walk also boxed the checksums, an option per read and a
   result pair, and the account allocated 6 words per entry: 45.0 words
   per record. *)
let walk_words_max = 20.

(* The 200k-key state of lib-kv-nvm's preload, encoded once (walked
   once, written in place, copied once into the result) and decoded
   once. Not asserted, since they are wall times. *)
let encode_keys = 200_000
let encode_runs = 5

type kv_sample = {
  kv_recovery_ms : float;  (** median of [kv_recoveries] *)
  state_bytes : int;
  decode_words : float;  (** per binding *)
  encode_bytes : float;  (** per byte of the checkpoint record *)
  walk_words : float;  (** per record, of the log's recovery walk *)
  encode_ms : float;  (** the [encode_keys]-key state, median *)
  decode_ms : float;  (** of the same state, median *)
}

let run_kv () =
  let key k = Printf.sprintf "key%07d" k and value k = "v" ^ string_of_int k in
  let nat = Native.create ~max_processes:1 () in
  ignore (Native.register nat);
  let module M = (val Native.machine nat) in
  let module C = Onll_core.Onll.Make (M) (Kv) in
  let obj =
    C.make
      { Onll_core.Onll.Config.default with log_capacity = 32 lsl 20 }
  in
  for k = 0 to kv_keys - 1 do
    ignore (C.update obj (Kv.Put (key k, value k)) : Kv.value)
  done;
  C.prune obj ~below:(C.checkpoint obj);
  let times =
    List.init kv_recoveries (fun _ ->
        let (), dt = Harness.time_it (fun () -> C.recover obj) in
        dt *. 1e3)
  in
  assert (C.read obj Kv.Size = Kv.Count kv_keys);
  List.iter
    (fun k -> assert (C.read obj (Kv.Get (key k)) = Kv.Found (Some (value k))))
    [ 0; kv_keys / 2; kv_keys - 1 ];
  (* The state decode alone, words allocated per binding. *)
  let bytes =
    Onll_util.Codec.encode Kv.state_codec
      (Kv.Keys.of_arrays (Array.init kv_keys key) (Array.init kv_keys value))
  in
  (* [Gc.allocated_bytes] counts the minor heap only up to its last
     collection, so one is forced on each side to count every word *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let st = Onll_util.Codec.decode Kv.state_codec bytes in
  Gc.minor ();
  let words =
    (Gc.allocated_bytes () -. before)
    /. float_of_int (Sys.word_size / 8)
    /. float_of_int kv_keys
  in
  assert (Kv.Keys.cardinal st = kv_keys);
  if words > kv_decode_words_max then
    failwith
      (Printf.sprintf
         "E6 kv: the state decode allocated %.1f words per binding (at most \
          %.1f)"
         words kv_decode_words_max);
  let module R = Onll_core.Record_log.Make (M) (Kv) in
  let record =
    R.Checkpoint
      {
        upto_idx = kv_keys;
        state = { R.st; floors = [| kv_keys |]; dropped = [] };
      }
  in
  (* the minor heap is emptied first: the decoded nodes still in it are
     not the encode's to promote *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let encoded = Onll_util.Codec.encode R.record_codec record in
  let encode_bytes =
    (Gc.allocated_bytes () -. before) /. float_of_int (String.length encoded)
  in
  if encode_bytes > kv_encode_bytes_max then
    failwith
      (Printf.sprintf
         "E6 kv: the checkpoint record encode allocated %.2f times its bytes \
          (at most %.1f)"
         encode_bytes kv_encode_bytes_max);
  (* The log's recovery walk alone, over one-envelope Ops records of
     [kv_keys] puts, with an entry callback that allocates nothing. *)
  let module L = Onll_plog.Plog.Make (M) in
  let log = L.create ~name:"e6.walk" ~capacity:(32 lsl 20) () in
  for k = 0 to kv_keys - 1 do
    L.append log
      (Onll_util.Codec.encode R.record_codec
         (R.Ops
            {
              exec_idx = k + 1;
              envs =
                [ R.envelope { Onll_core.Onll.id_proc = 0; id_seq = k }
                    (Kv.Put (key k, value k)) ];
            }))
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  let report = L.recover_walk log ~entry:(fun _ -> 0) in
  let walk_words = (Gc.minor_words () -. before) /. float_of_int kv_keys in
  assert (report = Onll_plog.Plog.clean_report);
  if walk_words > walk_words_max then
    failwith
      (Printf.sprintf
         "E6 kv: the recovery walk allocated %.2f words per record (at most \
          %.0f)"
         walk_words walk_words_max);
  let state =
    Kv.Keys.of_arrays
      (Array.init encode_keys key)
      (Array.init encode_keys value)
  in
  let encode_times =
    List.init encode_runs (fun _ ->
        let s, dt =
          Harness.time_it (fun () -> Onll_util.Codec.encode Kv.state_codec state)
        in
        assert (String.length s > 0);
        dt *. 1e3)
  in
  let state_bytes = Onll_util.Codec.encode Kv.state_codec state in
  let decode_times =
    List.init encode_runs (fun _ ->
        let st, dt =
          Harness.time_it (fun () ->
              Onll_util.Codec.decode Kv.state_codec state_bytes)
        in
        assert (Kv.equal_state st state);
        dt *. 1e3)
  in
  let median l = List.nth (List.sort compare l) (encode_runs / 2) in
  {
    kv_recovery_ms = List.nth (List.sort compare times) (kv_recoveries / 2);
    state_bytes = String.length bytes;
    decode_words = words;
    encode_bytes;
    walk_words;
    encode_ms = median encode_times;
    decode_ms = median decode_times;
  }

let run () =
  let histories = [ 200; 500; 1_000; 2_000; 4_000 ] in
  let summary = Onll_obs.Metrics.create () in
  let rows =
    List.concat_map
      (fun h ->
        List.map
          (fun (label, every) ->
            let s =
              run_one ~log_capacity:(1 lsl 22) ~history:h
                ~checkpoint_every:every
            in
            assert (s.value = h);
            let g name v =
              Onll_obs.Metrics.set
                (Onll_obs.Metrics.gauge summary
                   (Printf.sprintf "recovery.%s.h%d.ckpt%d" name h every))
                v
            in
            g "ms" s.recovery_ms;
            g "live_bytes" (float_of_int s.live_log_bytes);
            g "replayed_ops" (float_of_int s.replayed_ops);
            [
              string_of_int h;
              label;
              Onll_util.Table.fmt_float s.recovery_ms;
              string_of_int s.live_log_bytes;
              string_of_int s.trace_nodes;
              string_of_int s.replayed_ops;
            ])
          [ ("none", 0); ("every 200", 200) ])
      histories
  in
  Onll_util.Table.print
    ~title:
      "E6 — recovery cost vs history length (counter; crash after H \
       updates; recovered value asserted = H)"
    ~header:
      [ "history"; "checkpoints"; "recovery ms"; "live log bytes";
        "trace nodes"; "replayed ops" ]
    rows;
  let history = 1_000 and every = 200 in
  let samples =
    List.map
      (fun (label, log_capacity) ->
        let s = run_one ~log_capacity ~history ~checkpoint_every:every in
        assert (s.value = history);
        Onll_obs.Metrics.set
          (Onll_obs.Metrics.gauge summary
             (Printf.sprintf "recovery.ms.h%d.ckpt%d.cap%d" history every
                log_capacity))
          s.recovery_ms;
        (label, log_capacity, s))
      [ ("64 KiB", 1 lsl 16); ("4 MiB", 1 lsl 22); ("64 MiB", 1 lsl 26) ]
  in
  (* Recovery reads what the log wrote, up to its written bound, whatever
     the capacity: as many loads at every size, of the same bytes wherever
     the bound lies below the log end. A 64 KiB log's end cuts the 64 KiB
     reserve past its last append short, so it loads fewer. *)
  let _, _, largest = List.nth samples (List.length samples - 1) in
  List.iter
    (fun (label, log_capacity, s) ->
      if
        s.loads <> largest.loads
        || s.loaded_bytes > largest.loaded_bytes
        || (s.loaded_bytes < largest.loaded_bytes && log_capacity > 1 lsl 16)
      then
        failwith
          (Printf.sprintf
             "E6: recovery at %s loads %d times, %d bytes; at the largest \
              capacity %d times, %d bytes"
             label s.loads s.loaded_bytes largest.loads largest.loaded_bytes))
    samples;
  let rows =
    List.map
      (fun (label, _, s) ->
        [
          label;
          Onll_util.Table.fmt_float s.recovery_ms;
          string_of_int s.live_log_bytes;
          string_of_int s.replayed_ops;
          string_of_int s.loads;
          string_of_int s.loaded_bytes;
        ])
      samples
  in
  Onll_util.Table.print
    ~title:
      (Printf.sprintf
         "E6 — checkpointed recovery vs log capacity (H = %d, checkpoint \
          every %d)"
         history every)
    ~header:
      [
        "log capacity";
        "recovery ms";
        "live log bytes";
        "replayed ops";
        "loads";
        "loaded bytes";
      ]
    rows;
  let kv = run_kv () in
  Onll_obs.Metrics.set
    (Onll_obs.Metrics.gauge summary
       (Printf.sprintf "e6t.kv%d.recovery_ms" kv_keys))
    kv.kv_recovery_ms;
  Onll_obs.Metrics.set
    (Onll_obs.Metrics.gauge summary
       (Printf.sprintf "e6t.kv%d.decode_words_per_binding" kv_keys))
    kv.decode_words;
  Onll_obs.Metrics.set
    (Onll_obs.Metrics.gauge summary
       (Printf.sprintf "e6t.kv%d.encode_bytes_per_byte" kv_keys))
    kv.encode_bytes;
  Onll_obs.Metrics.set
    (Onll_obs.Metrics.gauge summary
       (Printf.sprintf "e6t.kv%d.walk_words_per_record" kv_keys))
    kv.walk_words;
  Onll_obs.Metrics.set
    (Onll_obs.Metrics.gauge summary
       (Printf.sprintf "e6t.kv%d.state_encode_ms" encode_keys))
    kv.encode_ms;
  Onll_obs.Metrics.set
    (Onll_obs.Metrics.gauge summary
       (Printf.sprintf "e6t.kv%d.state_decode_ms" encode_keys))
    kv.decode_ms;
  Onll_util.Table.print
    ~title:
      (Printf.sprintf
         "E6 — checkpointed kv recovery (native machine, %d keys, median of \
          %d; the state decode asserted at most %.1f words per binding, the \
          checkpoint record encode at most %.1f bytes per byte, the log's \
          recovery walk at most %.0f words per record; the %d-key state \
          encode and decode, median of %d, are not asserted)"
         kv_keys kv_recoveries kv_decode_words_max kv_encode_bytes_max
         walk_words_max encode_keys encode_runs)
    ~header:
      [
        "keys";
        "recovery ms";
        "state bytes";
        "decode words/binding";
        "encode bytes/byte";
        "walk words/record";
        Printf.sprintf "%dk-key encode ms" (encode_keys / 1000);
        Printf.sprintf "%dk-key decode ms" (encode_keys / 1000);
      ]
    [
      [
        string_of_int kv_keys;
        Onll_util.Table.fmt_float kv.kv_recovery_ms;
        string_of_int kv.state_bytes;
        Printf.sprintf "%.1f" kv.decode_words;
        Printf.sprintf "%.2f" kv.encode_bytes;
        Printf.sprintf "%.2f" kv.walk_words;
        Onll_util.Table.fmt_float kv.encode_ms;
        Onll_util.Table.fmt_float kv.decode_ms;
      ];
    ];
  let path = Harness.write_snapshot ~experiment:"e6" summary in
  Printf.printf "snapshot: %s\n" path
