(* Deterministic unit tests for the `onll serve` front-end (E18): wire
   framing, the service's protocol policy over an in-memory machine, its
   fence cost on every construction, the client table it serves (a
   qcheck property, its codec, its routing), exactly-once across crashes
   and later compactions and across a resubmission after a live fault,
   the persistent poll set, the socket loop over a
   forked server (churn, idle reaping, the connection cap, a pipelined
   backlog, a hung-up peer), and the SIGTERM drain over a real socket
   (plain and mirrored). The randomized/adversarial coverage lives in
   the E18 chaos campaign ([test_support/service_chaos.ml]); these are
   the pinned specimens. *)

open Onll_machine
module Fm = Onll_machine.File_machine
module Cs = Onll_specs.Counter
module Codec = Onll_util.Codec
module Protocol = Onll_serve.Protocol
module Service = Onll_serve.Service
module Server = Onll_serve.Server
module Netpoll = Onll_serve.Netpoll
module Faults = Onll_faults.Faults

let check = Alcotest.check

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "onll-tsv-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let incr_op = Codec.encode Cs.update_codec Cs.Increment

(* {1 Wire framing} *)

let test_framing () =
  (* Roundtrip through the length-prefixed framing, delivered one byte
     at a time (the poll loop's worst case). *)
  let msgs =
    [
      Protocol.Hello { client = 42; token = "onll"; tier = Protocol.T_exactly_once };
      Protocol.Submit { seq = 7; deadline_ns = 123_456; op = incr_op };
      Protocol.Fetch { op = "" };
      Protocol.Ping;
      Protocol.Bye;
    ]
  in
  let buf = Buffer.create 256 in
  List.iter (fun m -> Protocol.write_frame buf Protocol.req_codec m) msgs;
  let raw = Buffer.contents buf in
  let inbuf = Protocol.Inbuf.create () in
  let got = ref [] in
  String.iter
    (fun ch ->
      Protocol.Inbuf.add inbuf (Bytes.make 1 ch) 1;
      match Protocol.Inbuf.pop inbuf Protocol.req_codec with
      | Some m -> got := m :: !got
      | None -> ())
    raw;
  check Alcotest.int "every frame popped" (List.length msgs)
    (List.length !got);
  check Alcotest.bool "frames decode to the originals" true
    (List.rev !got = msgs);
  check Alcotest.int "no residue" 0 (Protocol.Inbuf.pending inbuf);
  (* a forged length prefix over the cap is a protocol error, not an
     allocation request *)
  let evil = Bytes.create 4 in
  Bytes.set_int32_be evil 0 (Int32.of_int (Protocol.max_frame + 1));
  Protocol.Inbuf.add inbuf evil 4;
  check Alcotest.bool "oversized prefix raises" true
    (match Protocol.Inbuf.pop inbuf Protocol.req_codec with
    | exception Protocol.Inbuf.Oversized_frame -> true
    | _ -> false)

(* Frames are decoded where they lie in the input buffer. A stream of
   request frames and one of response frames, each fed in as two pieces
   split at every byte, decode to the originals with nothing left over; a
   frame whose payload runs short of its length prefix, or past it into
   the next frame, raises [Decode_error], and an oversized prefix still
   raises [Oversized_frame]. *)
let test_framing_in_place () =
  let stream codec msgs =
    let buf = Buffer.create 256 in
    List.iter (fun m -> Protocol.write_frame buf codec m) msgs;
    Buffer.contents buf
  in
  let pop_all inbuf codec =
    let rec go acc =
      match Protocol.Inbuf.pop inbuf codec with
      | Some m -> go (m :: acc)
      | None -> acc
    in
    go []
  in
  let every_split what codec msgs =
    let raw = stream codec msgs in
    for k = 0 to String.length raw do
      let inbuf = Protocol.Inbuf.create () in
      Protocol.Inbuf.add inbuf (Bytes.of_string (String.sub raw 0 k)) k;
      let early = pop_all inbuf codec in
      let rest = String.length raw - k in
      Protocol.Inbuf.add inbuf (Bytes.of_string (String.sub raw k rest)) rest;
      let got = List.rev (pop_all inbuf codec @ early) in
      check Alcotest.bool
        (Printf.sprintf "%s split at %d decodes as before" what k)
        true (got = msgs);
      check Alcotest.int "no residue" 0 (Protocol.Inbuf.pending inbuf)
    done
  in
  every_split "requests" Protocol.req_codec
    [
      Protocol.Hello { client = 3; token = "t"; tier = Protocol.T_staleness 4 };
      Protocol.Submit { seq = 9; deadline_ns = 0; op = String.make 300 'o' };
      Protocol.Ping;
      Protocol.Fetch { op = "f" };
      Protocol.Bye;
    ];
  (* every resolution and every refusal the server sends *)
  every_split "responses" Protocol.resp_codec
    ([
       Protocol.Attached
         { next_seq = 5; resolution = Protocol.W_reinvoked (4, 1, 7) };
       Protocol.Attached { next_seq = 0; resolution = Protocol.W_none };
       Protocol.Attached { next_seq = 3; resolution = Protocol.W_applied 2 };
       Protocol.Attached { next_seq = 9; resolution = Protocol.W_unresolved 8 };
       Protocol.Acked { seq = 5; value = -1 };
       Protocol.Got 42;
       Protocol.Pong;
       Protocol.Gone;
     ]
    @ List.map
        (fun r -> Protocol.Refused r)
        Protocol.
          [
            R_overloaded; R_timeout; R_degraded; R_draining; R_bad_seq 6;
            R_bad_token; R_bad_client; R_not_attached; R_bad_op; R_bad_tier;
          ]);
  let raises_decode_error what raw =
    let inbuf = Protocol.Inbuf.create () in
    Protocol.Inbuf.add inbuf (Bytes.of_string raw) (String.length raw);
    check Alcotest.bool what true
      (match Protocol.Inbuf.pop inbuf Protocol.req_codec with
      | exception Codec.Decode_error _ -> true
      | _ -> false)
  in
  let frame = stream Protocol.req_codec [ Protocol.Fetch { op = "abc" } ] in
  let flen = String.length frame - 4 in
  let prefix n =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    Bytes.to_string b
  in
  raises_decode_error "a payload shorter than its prefix"
    (prefix (flen + 1) ^ String.sub frame 4 flen ^ "\000");
  raises_decode_error "a prefix cutting its payload short"
    (prefix (flen - 1) ^ String.sub frame 4 flen ^ frame);
  (* A short frame whose body claims 50,000 bytes, followed in the buffer
     by a frame that long: the decode stops at the short frame's end, so
     it raises before it allocates the bytes claimed. *)
  let forged = Bytes.of_string frame in
  Bytes.set_int64_le forged (4 + 8) 50_000L;
  let raw =
    Bytes.to_string forged
    ^ stream Protocol.req_codec
        [ Protocol.Fetch { op = String.make 60_000 'n' } ]
  in
  let inbuf = Protocol.Inbuf.create () in
  Protocol.Inbuf.add inbuf (Bytes.of_string raw) (String.length raw);
  let before = Gc.allocated_bytes () in
  check Alcotest.bool "a length past the frame's end raises" true
    (match Protocol.Inbuf.pop inbuf Protocol.req_codec with
    | exception Codec.Decode_error _ -> true
    | _ -> false);
  check Alcotest.bool "and allocates less than it claims" true
    (Gc.allocated_bytes () -. before < 10_000.);
  let inbuf = Protocol.Inbuf.create () in
  let evil = prefix (Protocol.max_frame + 1) in
  Protocol.Inbuf.add inbuf (Bytes.of_string evil) 4;
  check Alcotest.bool "oversized prefix raises" true
    (match Protocol.Inbuf.pop inbuf Protocol.req_codec with
    | exception Protocol.Inbuf.Oversized_frame -> true
    | _ -> false)

(* {1 Protocol policy over an in-memory machine} *)

let test_handle_policy () =
  let nat = Native.create ~fence_ns:0 ~max_processes:1 () in
  ignore (Native.register nat);
  let module M = (val Native.machine nat) in
  let module Svc = Service.Make (M) in
  let t = Svc.make ~token:"secret" ~max_clients:100 Service.Plain in
  let conn = Svc.conn () in
  let h req = Svc.handle t conn req in
  (* auth and range policy, all before any durable work *)
  check Alcotest.bool "bad token refused" true
    (h (Protocol.Hello { client = 1; token = "wrong"; tier = Protocol.T_exactly_once })
    = Protocol.Refused Protocol.R_bad_token);
  check Alcotest.bool "client out of range refused" true
    (h (Protocol.Hello { client = 100; token = "secret"; tier = Protocol.T_exactly_once })
    = Protocol.Refused Protocol.R_bad_client);
  check Alcotest.bool "submit before hello refused" true
    (h (Protocol.Submit { seq = 0; deadline_ns = 0; op = incr_op })
    = Protocol.Refused Protocol.R_not_attached);
  (* a client with no entry starts at seq 0 with nothing to resolve *)
  (match h (Protocol.Hello { client = 1; token = "secret"; tier = Protocol.T_exactly_once }) with
  | Protocol.Attached { next_seq = 0; resolution = Protocol.W_none; _ } -> ()
  | r -> Alcotest.failf "hello: %s" (match r with
      | Protocol.Refused ref ->
          Format.asprintf "refused %a" Protocol.pp_refusal ref
      | _ -> "unexpected response shape"));
  (* the exactly-once submit path *)
  check Alcotest.bool "first submit acks value 1" true
    (h (Protocol.Submit { seq = 0; deadline_ns = 0; op = incr_op })
    = Protocol.Acked { seq = 0; value = 1 });
  check Alcotest.bool "a retried seq acks without a second apply" true
    (h (Protocol.Submit { seq = 0; deadline_ns = 0; op = incr_op })
    = Protocol.Acked { seq = 0; value = 1 });
  check Alcotest.bool "a future seq refused with the expected one" true
    (h (Protocol.Submit { seq = 5; deadline_ns = 0; op = incr_op })
    = Protocol.Refused (Protocol.R_bad_seq 1));
  check Alcotest.bool "undecodable op refused" true
    (h (Protocol.Submit { seq = 1; deadline_ns = 0; op = "\xff\xff\xff" })
    = Protocol.Refused Protocol.R_bad_op);
  check Alcotest.bool "read sees the one applied op" true
    (h (Protocol.Fetch { op = "" }) = Protocol.Got 1);
  check Alcotest.int "counter agrees" 1 (Svc.counter_value t);
  check Alcotest.bool "a re-attach reads the applied seq" true
    (h (Protocol.Hello { client = 1; token = "secret"; tier = Protocol.T_exactly_once })
    = Protocol.Attached { next_seq = 1; resolution = Protocol.W_applied 0 });
  check Alcotest.bool "a client with no applied op has no entry" true
    (Svc.handle t (Svc.conn ())
       (Protocol.Hello { client = 2; token = "secret"; tier = Protocol.T_exactly_once })
    = Protocol.Attached { next_seq = 0; resolution = Protocol.W_none });
  (* a resubmission below the next seq leaves it where it was *)
  check Alcotest.bool "the next seq applies" true
    (h (Protocol.Submit { seq = 1; deadline_ns = 0; op = incr_op })
    = Protocol.Acked { seq = 1; value = 2 });
  check Alcotest.bool "an older seq acks the counter as it stands" true
    (h (Protocol.Submit { seq = 0; deadline_ns = 0; op = incr_op })
    = Protocol.Acked { seq = 0; value = 2 });
  check Alcotest.bool "and leaves the next seq where it was" true
    (h (Protocol.Submit { seq = 3; deadline_ns = 0; op = incr_op })
    = Protocol.Refused (Protocol.R_bad_seq 2));
  (* drain policy *)
  Svc.drain t;
  check Alcotest.bool "hello while draining refused" true
    (h (Protocol.Hello { client = 2; token = "secret"; tier = Protocol.T_exactly_once })
    = Protocol.Refused Protocol.R_draining);
  check Alcotest.bool "submit while draining refused" true
    (h (Protocol.Submit { seq = 1; deadline_ns = 0; op = incr_op })
    = Protocol.Refused Protocol.R_draining);
  check Alcotest.bool "reads still answer while draining" true
    (h (Protocol.Fetch { op = "" }) = Protocol.Got 2);
  check Alcotest.bool "bye answers gone" true (h Protocol.Bye = Protocol.Gone)

(* {1 Per-session durability tiers (E20)} *)

let test_tiers () =
  let nat = Native.create ~fence_ns:0 ~max_processes:1 () in
  ignore (Native.register nat);
  let module M = (val Native.machine nat) in
  let module Svc = Service.Make (M) in
  let t = Svc.make ~max_staleness:8 Service.Plain in
  let submit conn seq =
    Svc.handle t conn (Protocol.Submit { seq; deadline_ns = 0; op = incr_op })
  in
  (* tier validation is definite and pre-durable *)
  let refused tier =
    Svc.handle t (Svc.conn ())
      (Protocol.Hello { client = 9; token = "onll"; tier })
    = Protocol.Refused Protocol.R_bad_tier
  in
  check Alcotest.bool "staleness 0 refused" true
    (refused (Protocol.T_staleness 0));
  check Alcotest.bool "staleness above the server cap refused" true
    (refused (Protocol.T_staleness 9));
  check Alcotest.bool "staleness at the cap accepted" false
    (refused (Protocol.T_staleness 8));
  (* a staleness-k session: fence-free acks, visible to reads at once *)
  let ck = Svc.conn () in
  (match
     Svc.handle t ck
       (Protocol.Hello
          { client = 1; token = "onll"; tier = Protocol.T_staleness 4 })
   with
  | Protocol.Attached _ -> ()
  | _ -> Alcotest.fail "staleness hello not attached");
  check Alcotest.bool "staleness submit acks" true
    (submit ck 0 = Protocol.Acked { seq = 0; value = 1 });
  check Alcotest.bool "staleness echoes the client seq" true
    (submit ck 1 = Protocol.Acked { seq = 1; value = 2 });
  check Alcotest.int "acks are readable immediately" 2 (Svc.counter_value t);
  (* a strict session piggybacks: its one fence drains the tail too *)
  let cs = Svc.conn () in
  (match
     Svc.handle t cs
       (Protocol.Hello { client = 2; token = "onll"; tier = Protocol.T_strict })
   with
  | Protocol.Attached _ -> ()
  | _ -> Alcotest.fail "strict hello not attached");
  check Alcotest.bool "strict submit acks" true
    (submit cs 0 = Protocol.Acked { seq = 0; value = 3 });
  (* exactly-once clients interleave with tiered ones on the same object *)
  let ce = Svc.conn () in
  ignore
    (Svc.handle t ce
       (Protocol.Hello
          { client = 3; token = "onll"; tier = Protocol.T_exactly_once })
      : Protocol.resp);
  check Alcotest.bool "exactly-once submit still acks" true
    (submit ce 0 = Protocol.Acked { seq = 0; value = 4 });
  check Alcotest.int "all four updates landed" 4 (Svc.counter_value t);
  Svc.quiesce t;
  (* relaxed tiers are a wrapper property: constructions without it
     refuse them outright (fresh machine: region names are global) *)
  let nat2 = Native.create ~fence_ns:0 ~max_processes:1 () in
  ignore (Native.register nat2);
  let module M2 = (val Native.machine nat2) in
  let module Svc = Service.Make (M2) in
  let tb = Svc.make ~token:"onll" Service.Batched in
  check Alcotest.bool "batched refuses the strict tier" true
    (Svc.handle tb (Svc.conn ())
       (Protocol.Hello { client = 1; token = "onll"; tier = Protocol.T_strict })
    = Protocol.Refused Protocol.R_bad_tier);
  check Alcotest.bool "batched refuses staleness tiers" true
    (Svc.handle tb (Svc.conn ())
       (Protocol.Hello
          { client = 1; token = "onll"; tier = Protocol.T_staleness 2 })
    = Protocol.Refused Protocol.R_bad_tier);
  check Alcotest.bool "batched still serves exactly-once" true
    (match
       Svc.handle tb (Svc.conn ())
         (Protocol.Hello
            { client = 1; token = "onll"; tier = Protocol.T_exactly_once })
     with
    | Protocol.Attached _ -> true
    | _ -> false)

(* {1 Admission compacts before it sheds} *)

let hello_ok h ~client =
  match
    h (Protocol.Hello { client; token = "onll"; tier = Protocol.T_exactly_once })
  with
  | Protocol.Attached { next_seq; _ } -> next_seq
  | _ -> Alcotest.failf "client %d: hello refused" client

let test_no_cliff () =
  (* Two exactly-once clients, 5000 submits each, on the default 64 KiB
     object log (a two-client table adds a few hundred bytes): far past
     the ~700 updates the log holds. Admission compacts whenever the fill reaches
     the watermark, so nothing is shed and the counter equals the
     acks. *)
  let nat = Native.create ~fence_ns:0 ~max_processes:1 () in
  ignore (Native.register nat);
  let module M = (val Native.machine nat) in
  let module Svc = Service.Make (M) in
  let t = Svc.make ~max_clients:2 Service.Plain in
  let conns = Array.init 2 (fun _ -> Svc.conn ()) in
  Array.iteri
    (fun client conn -> ignore (hello_ok (Svc.handle t conn) ~client))
    conns;
  let acks = ref 0 and sheds = ref 0 in
  for seq = 0 to 4999 do
    Array.iter
      (fun conn ->
        match
          Svc.handle t conn (Protocol.Submit { seq; deadline_ns = 0; op = incr_op })
        with
        | Protocol.Acked _ -> incr acks
        | Protocol.Refused Protocol.R_overloaded -> incr sheds
        | _ -> Alcotest.failf "seq %d: unexpected response" seq)
      conns
  done;
  check Alcotest.int "no submit shed" 0 !sheds;
  check Alcotest.int "every submit acked" 10_000 !acks;
  check Alcotest.int "the counter equals the acks" !acks (Svc.counter_value t)

(* Compaction prunes the object's trace as well as its log, so a server's
   memory does not grow with the operations it has served: the live heap
   after 90k exactly-once updates is within 1.5x of that after 30k. *)
let test_heap_flat () =
  match Test_support.Compaction.served_live_words [ 15_000; 45_000 ] with
  | [ at_30k; at_90k ] ->
      check Alcotest.bool
        (Printf.sprintf "live words %d at 90k within 1.5x of %d at 30k"
           at_90k at_30k)
        true
        (2 * at_90k <= 3 * at_30k)
  | _ -> assert false

(* {1 Load generator} *)

(* The event loop sleeps until its earliest timed event, never past it,
   and never longer than 10 ms. *)
let test_poll_timeout () =
  let ms = 1_000_000 and now = 5_000_000_000 in
  let wait due = Onll_serve.Loadgen.poll_timeout_ms ~now ~due in
  check Alcotest.int "already due" 0 (wait now);
  check Alcotest.int "overdue" 0 (wait (now - (3 * ms)));
  check Alcotest.int "rounded up, never early" 1 (wait (now + 1));
  check Alcotest.int "whole milliseconds" 3 (wait (now + (3 * ms)));
  check Alcotest.int "a partial one rounds up" 4 (wait (now + (3 * ms) + 1));
  check Alcotest.int "capped" 10 (wait (now + (25 * ms)));
  check Alcotest.int "nothing due" 10 (wait max_int)

(* {1 The persistent poll set} *)

let reported poll =
  let seen = ref [] in
  Netpoll.ready poll (fun i bits -> seen := (i, bits) :: !seen);
  List.rev !seen

let ready_list = Alcotest.(list (pair int int))

(* A wait interrupted by a signal stores no result bits: the following
   ready pass must report nothing, not replay the previous wait's events
   (left unreported here on purpose). *)
let test_netpoll_eintr () =
  let r, w = Unix.pipe () in
  let poll = Netpoll.create () in
  Netpoll.add poll r Netpoll.pollin;
  ignore (Unix.write w (Bytes.make 1 'x') 0 1);
  check Alcotest.int "the pipe is ready" 1 (Netpoll.wait poll ~timeout_ms:1000);
  ignore (Unix.read r (Bytes.create 1) 0 1);
  let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle ignore) in
  let disarm () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigalrm prev
  in
  Fun.protect ~finally:disarm (fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.; it_value = 0.05 });
      check Alcotest.int "the wait on the empty pipe is interrupted" (-1)
        (Netpoll.wait poll ~timeout_ms:5000));
  check ready_list "nothing replayed" [] (reported poll);
  List.iter Unix.close [ r; w ]

(* Entries keep their index until removed; removal moves the last entry
   into the hole; the ready pass runs in descending index order, and the
   entry it reports may remove itself. *)
let test_netpoll_swap_remove () =
  let pipes = Array.init 3 (fun _ -> Unix.pipe ()) in
  let poll = Netpoll.create ~initial:1 () in
  Array.iter (fun (r, _) -> Netpoll.add poll r Netpoll.pollin) pipes;
  let poke k = ignore (Unix.write (snd pipes.(k)) (Bytes.make 1 'x') 0 1) in
  poke 0;
  poke 2;
  check Alcotest.int "two ready" 2 (Netpoll.wait poll ~timeout_ms:1000);
  let seen = ref [] in
  Netpoll.ready poll (fun i bits ->
      seen := (i, bits) :: !seen;
      if i = 0 then Netpoll.remove poll i);
  check ready_list "descending, each once"
    [ (2, Netpoll.pollin); (0, Netpoll.pollin) ]
    (List.rev !seen);
  check Alcotest.int "one removed" 2 (Netpoll.length poll);
  (* pipe 2 moved into index 0, pipe 1 kept index 1 *)
  Netpoll.set_interest poll 0 0;
  poke 1;
  ignore (Netpoll.wait poll ~timeout_ms:1000);
  check ready_list "pipe 1 keeps its index; pipe 2 is no longer asked"
    [ (1, Netpoll.pollin) ] (reported poll);
  check ready_list "a second pass reports nothing" [] (reported poll);
  Array.iter (fun (r, w) -> List.iter Unix.close [ r; w ]) pipes

(* {1 One persistent fence per exactly-once submit} *)

(* On each construction, solo and well below the admission watermark:
   an exactly-once Submit costs exactly the object's one persistent
   fence (Theorem 5.1), and a Hello or a Fetch costs none. *)
let test_fences () =
  List.iter
    (fun construction ->
      let nat = Native.create ~fence_ns:0 ~max_processes:1 () in
      ignore (Native.register nat);
      let module M = (val Native.machine nat) in
      let module Svc = Service.Make (M) in
      let t = Svc.make construction in
      let conn = Svc.conn () in
      let name = Service.construction_name construction in
      let fences what req expected =
        let f0 = M.persistent_fences () in
        ignore (Svc.handle t conn req : Protocol.resp);
        check Alcotest.int
          (Printf.sprintf "%s: %s" name what)
          expected
          (M.persistent_fences () - f0)
      in
      let hello =
        Protocol.Hello
          { client = 3; token = "onll"; tier = Protocol.T_exactly_once }
      in
      fences "hello" hello 0;
      for seq = 0 to 9 do
        fences "submit" (Protocol.Submit { seq; deadline_ns = 0; op = incr_op }) 1;
        fences "fetch" (Protocol.Fetch { op = "" }) 0
      done;
      fences "re-attach" hello 0;
      check Alcotest.int (name ^ ": every submit applied once") 10
        (Svc.counter_value t))
    [ Service.Plain; Service.Mirrored; Service.Sharded; Service.Batched ]

(* {1 The client table} *)

module Kv = Onll_specs.Kv
module Table = Onll_core.Client_table.Make (Kv)

(* A stream of tracked updates from four clients, a third of them
   retries of a seq the client already used, against the inner
   specification applied to the stream with every retry removed: the
   same values in order (a retry answers [Duplicate]) and the same final
   state. *)
let prop_table_dedups =
  QCheck.Test.make ~name:"tracked updates = the deduplicated stream"
    ~count:300 QCheck.small_nat (fun seed ->
      let rng = Onll_util.Splitmix.create (seed + 1) in
      let next = Array.make 4 0 in
      let last = Array.make 4 (-1) in
      let st = ref Table.initial and model = ref Kv.initial in
      for _ = 1 to 60 do
        let client = Onll_util.Splitmix.int rng 4 in
        let seq =
          if Onll_util.Splitmix.int rng 3 = 0 then
            Onll_util.Splitmix.int rng (next.(client) + 1)
          else next.(client)
        in
        next.(client) <- max next.(client) (seq + 1);
        let op = Test_support.Gen.Kv.update rng in
        let st', v = Table.apply !st (Table.Tracked { client; seq; op }) in
        st := st';
        let expected =
          if seq > last.(client) then begin
            last.(client) <- seq;
            let m, v = Kv.apply !model op in
            model := m;
            Table.Value v
          end
          else Table.Duplicate
        in
        if not (Table.equal_value v expected) then
          QCheck.Test.fail_reportf "client %d seq %d: %a, wanted %a" client
            seq Table.pp_value v Table.pp_value expected
      done;
      Kv.equal_state !st.Table.inner !model
      && Array.for_all2
           (fun l c ->
             Table.read !st (Table.Last c)
             = Table.Last_seq (if l < 0 then None else Some l))
           last [| 0; 1; 2; 3 |])

let test_table_codec () =
  let st =
    List.fold_left
      (fun st u -> fst (Table.apply st u))
      Table.initial
      [
        Table.Tracked { client = 7; seq = 0; op = Kv.Put ("a", "1") };
        Table.Untracked (Kv.Put ("b", "2"));
        Table.Tracked { client = 9_999; seq = 41; op = Kv.Delete "a" };
        Table.Tracked { client = 7; seq = 3; op = Kv.Put ("c", "3") };
      ]
  in
  let bytes = Codec.encode Table.state_codec st in
  check Alcotest.bool "the state round-trips" true
    (Table.equal_state st (Codec.decode Table.state_codec bytes));
  check Alcotest.bool "a differing seq is a differing state" false
    (Table.equal_state st
       (fst
          (Table.apply st
             (Table.Tracked { client = 7; seq = 4; op = Kv.Put ("c", "3") }))));
  check Alcotest.int "two entries cost what the bound says"
    (Table.checkpoint_bytes ~clients:2)
    (String.length bytes
    - String.length (Codec.encode Kv.state_codec st.Table.inner));
  List.iter
    (fun u ->
      check Alcotest.bool "an update round-trips" true
        (Codec.decode Table.update_codec (Codec.encode Table.update_codec u)
        = u))
    [
      Table.Tracked { client = 2; seq = 5; op = Kv.Delete "k" };
      Table.Untracked (Kv.Put ("k", "v"));
    ]

(* A tracked update goes where its inner operation goes; the table read
   fans out and merges by max, whatever shard a client's updates hit. *)
let test_table_routing () =
  let rng = Onll_util.Splitmix.create 5 in
  for _ = 1 to 200 do
    let op = Test_support.Gen.Kv.update rng in
    List.iter
      (fun shards ->
        let inner = Kv.shard_of_update ~shards op in
        check Alcotest.int "tracked" inner
          (Table.shard_of_update ~shards
             (Table.Tracked { client = 1; seq = 0; op }));
        check Alcotest.int "untracked" inner
          (Table.shard_of_update ~shards (Table.Untracked op)))
      [ 1; 4; 7 ]
  done;
  check Alcotest.bool "the table read is global" true
    (Table.shard_of_read ~shards:4 (Table.Last 1) = None);
  check Alcotest.bool "merged by max" true
    (Table.merge_read (Table.Last 1)
       [ Table.Last_seq (Some 3); Table.Last_seq None; Table.Last_seq (Some 8) ]
    = Table.Last_seq (Some 8))

(* {1 Exactly-once across a crash and later compactions} *)

(* The same machine, with a region created again by name handed back as
   it stands: a second service over it is the restart after a crash. *)
module Reopening (M : Machine_sig.S) = struct
  include M

  module Pm = struct
    include M.Pm

    let regions = Hashtbl.create 16

    let create ~name ~size =
      match Hashtbl.find_opt regions name with
      | Some r -> r
      | None ->
          let r = M.Pm.create ~name ~size in
          Hashtbl.replace regions name r;
          r
  end
end

let hello_eo ~client =
  Protocol.Hello { client; token = "onll"; tier = Protocol.T_exactly_once }

let submit_req seq = Protocol.Submit { seq; deadline_ns = 0; op = incr_op }

(* Client A's second op is cut just before its persistent fence, and the
   machine crashes under [policy]. After the restart client B submits
   until its updates have forced three compactions, whose checkpoints
   summarise everything below them — a phantom apply would surface here.
   A's Hello must agree with the counter: [next_seq] past the op exactly
   when the op survived. Returns whether it did. *)
let phantom_scenario construction policy =
  let sim = Sim.create ~crash_policy:policy ~max_processes:1 () in
  let module Base = (val Sim.machine sim) in
  let module M = Reopening (Base) in
  let module S1 = Service.Make (M) in
  let t1 = S1.make ~max_clients:4 ~log_capacity:4096 construction in
  let a = S1.conn () in
  ignore (S1.handle t1 a (hello_eo ~client:0) : Protocol.resp);
  check Alcotest.bool "A's first op acks" true
    (S1.handle t1 a (submit_req 0) = Protocol.Acked { seq = 0; value = 1 });
  let cut =
    Sim.run sim
      (Onll_sched.Sched.Strategy.script
         [ Onll_sched.Sched.Strategy.run_until_pfence 0; Crash_here ])
      [| (fun _ -> ignore (S1.handle t1 a (submit_req 1) : Protocol.resp)) |]
  in
  check Alcotest.bool "A's second op is in flight at the crash" true
    (cut = Onll_sched.Sched.World.Crashed);
  let registry = Onll_obs.Metrics.create () in
  let module S2 = Service.Make (M) in
  let t2 =
    S2.make ~sink:(Onll_obs.Sink.make ~registry ()) ~max_clients:4
      ~log_capacity:4096 construction
  in
  let b = S2.conn () in
  ignore (S2.handle t2 b (hello_eo ~client:1) : Protocol.resp);
  let acks = ref 0 in
  while Onll_obs.Metrics.counter_value registry "checkpoints" < 3 do
    match S2.handle t2 b (submit_req !acks) with
    | Protocol.Acked _ -> incr acks
    | _ -> Alcotest.failf "B's submit %d not acked" !acks
  done;
  let a = S2.conn () in
  match S2.handle t2 a (hello_eo ~client:0) with
  | Protocol.Attached { next_seq; resolution; _ } ->
      let survived = next_seq = 2 in
      check Alcotest.bool "the resolution names A's last applied op" true
        (resolution = Protocol.W_applied (next_seq - 1));
      check Alcotest.int "Hello agrees with the counter"
        (1 + !acks + if survived then 1 else 0)
        (S2.counter_value t2);
      if not survived then
        check Alcotest.bool "the lost op is resubmitted once" true
          (match S2.handle t2 a (submit_req 1) with
          | Protocol.Acked _ -> S2.counter_value t2 = 2 + !acks
          | _ -> false);
      let value = S2.counter_value t2 in
      check Alcotest.bool "a retry acks, never applied twice" true
        (S2.handle t2 a (submit_req 1) = Protocol.Acked { seq = 1; value });
      survived
  | _ -> Alcotest.fail "A's hello refused"

let test_phantom_apply () =
  List.iter
    (fun construction ->
      let name = Service.construction_name construction in
      check Alcotest.bool (name ^ ": Drop_all loses the unfenced op") false
        (phantom_scenario construction Onll_nvm.Crash_policy.Drop_all);
      check Alcotest.bool (name ^ ": Persist_all keeps it") true
        (phantom_scenario construction Onll_nvm.Crash_policy.Persist_all))
    [ Service.Plain; Service.Mirrored; Service.Sharded; Service.Batched ]

(* An exactly-once op whose drain failed stays staged in the staleness
   tail, and a later staleness ack makes it visible. A Hello that then
   reports it applied must first have made it durable: it survives a
   Drop_all crash, as the Hello said. *)
let test_failed_op_durable_before_hello () =
  let sim = Sim.create ~max_processes:1 () in
  let module Base = (val Sim.machine sim) in
  let module M = Reopening (Base) in
  let module S1 = Service.Make (M) in
  let t1 = S1.make ~max_staleness:8 Service.Plain in
  let a = S1.conn () and stale = S1.conn () in
  ignore (S1.handle t1 a (hello_eo ~client:0) : Protocol.resp);
  ignore
    (S1.handle t1 stale
       (Protocol.Hello
          { client = 1; token = "onll"; tier = Protocol.T_staleness 8 })
      : Protocol.resp);
  let storm =
    Faults.install (Sim.memory sim)
      {
        Faults.Plan.none with
        seed = 3;
        flush_fail_prob = 1.0;
        max_consecutive_transients = 1_000_000;
        target =
          (fun region ->
            List.mem "relaxcoord" (String.split_on_char '.' region));
      }
  in
  check Alcotest.bool "A's drain fails: indeterminate" true
    (S1.handle t1 a (submit_req 0) = Protocol.Refused Protocol.R_timeout);
  Faults.remove storm;
  check Alcotest.bool "a staleness ack counts A's staged op" true
    (S1.handle t1 stale (submit_req 0) = Protocol.Acked { seq = 0; value = 2 });
  check Alcotest.bool "A's Hello reports its op applied" true
    (S1.handle t1 (S1.conn ()) (hello_eo ~client:0)
    = Protocol.Attached
        { next_seq = 1; resolution = Protocol.W_applied 0 });
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  let module S2 = Service.Make (M) in
  let t2 = S2.make ~max_staleness:8 Service.Plain in
  check Alcotest.bool "after a crash, A's op is still applied" true
    (S2.handle t2 (S2.conn ()) (hello_eo ~client:0)
    = Protocol.Attached
        { next_seq = 1; resolution = Protocol.W_applied 0 });
  check Alcotest.int "and counted once" 2 (S2.counter_value t2)

(* A staleness-tier ack, then an exactly-once ack, then a Drop_all
   crash: the exactly-once update's fence drains the staleness tail
   ahead of it, so both survive — otherwise the crash would lose the
   earlier op and keep the later one, an interior op, not a suffix. *)
let test_stale_then_exactly_once () =
  let sim = Sim.create ~max_processes:1 () in
  let module Base = (val Sim.machine sim) in
  let module M = Reopening (Base) in
  let module S1 = Service.Make (M) in
  let t1 = S1.make ~max_staleness:8 Service.Plain in
  let stale = S1.conn () and eo = S1.conn () in
  ignore
    (S1.handle t1 stale
       (Protocol.Hello
          { client = 0; token = "onll"; tier = Protocol.T_staleness 8 })
      : Protocol.resp);
  ignore (S1.handle t1 eo (hello_eo ~client:1) : Protocol.resp);
  check Alcotest.bool "the staleness ack" true
    (S1.handle t1 stale (submit_req 0) = Protocol.Acked { seq = 0; value = 1 });
  check Alcotest.bool "the exactly-once ack" true
    (S1.handle t1 eo (submit_req 0) = Protocol.Acked { seq = 0; value = 2 });
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  let module S2 = Service.Make (M) in
  let t2 = S2.make ~max_staleness:8 Service.Plain in
  check Alcotest.int "both acknowledged updates survive" 2
    (S2.counter_value t2);
  check Alcotest.bool "the exactly-once client reads its op applied" true
    (S2.handle t2 (S2.conn ()) (hello_eo ~client:1)
    = Protocol.Attached
        { next_seq = 1; resolution = Protocol.W_applied 0 })

(* Client A's second op fails at its fence under a flush storm and stays
   pending; A's Hello, still in the storm, cannot see it applied. Once
   the storm ends, client B's update persists the pending op, and A
   resubmits under the [next_seq] its Hello gave, following [R_bad_seq]
   the way a client does. The resubmission must be acknowledged without
   a second apply: the counter equals the confirmed ops, before and
   after a Drop_all crash. B is a staleness client where the relaxed
   tiers exist, whose ack makes the staged op visible. *)
let test_resubmit_after_a_pending_op () =
  List.iter
    (fun construction ->
      let name = Service.construction_name construction in
      (* one machine process, as the server runs: a plain shard keeps
         the failed op in its trace, and B's update finishes it first *)
      let sim = Sim.create ~max_processes:1 () in
      let module Base = (val Sim.machine sim) in
      let module M = Reopening (Base) in
      let module S1 = Service.Make (M) in
      let t1 = S1.make ~max_staleness:8 construction in
      let a = S1.conn () and b = S1.conn () in
      ignore (S1.handle t1 a (hello_eo ~client:0) : Protocol.resp);
      let b_tier =
        match construction with
        | Service.Plain | Service.Mirrored -> Protocol.T_staleness 8
        | Service.Sharded | Service.Batched -> Protocol.T_exactly_once
      in
      ignore
        (S1.handle t1 b
           (Protocol.Hello { client = 1; token = "onll"; tier = b_tier })
          : Protocol.resp);
      check Alcotest.bool (name ^ ": A's first op acks") true
        (S1.handle t1 a (submit_req 0) = Protocol.Acked { seq = 0; value = 1 });
      let storm =
        Faults.install (Sim.memory sim)
          {
            Faults.Plan.none with
            seed = 5;
            flush_fail_prob = 1.0;
            max_consecutive_transients = 1_000_000;
            target =
              (fun region ->
                let parts = String.split_on_char '.' region in
                List.mem "plog" parts || List.mem "relaxcoord" parts);
          }
      in
      check Alcotest.bool (name ^ ": A's second op is indeterminate") true
        (S1.handle t1 a (submit_req 1) = Protocol.Refused Protocol.R_timeout);
      let a = S1.conn () in
      let next_seq =
        match S1.handle t1 a (hello_eo ~client:0) with
        | Protocol.Attached { next_seq; _ } -> next_seq
        | _ -> Alcotest.failf "%s: A's hello refused" name
      in
      check Alcotest.int (name ^ ": the pending op is not yet applied") 1
        next_seq;
      Faults.remove storm;
      check Alcotest.bool (name ^ ": B's op acks") true
        (match S1.handle t1 b (submit_req 0) with
        | Protocol.Acked _ -> true
        | _ -> false);
      let rec resubmit seq =
        match S1.handle t1 a (submit_req seq) with
        | Protocol.Acked _ -> ()
        | Protocol.Refused (Protocol.R_bad_seq expected) when expected <> seq
          ->
            resubmit expected
        | _ -> Alcotest.failf "%s: A's resubmit %d not acked" name seq
      in
      resubmit next_seq;
      check Alcotest.int (name ^ ": counter = confirmed ops") 3
        (S1.counter_value t1);
      Onll_nvm.Memory.crash (Sim.memory sim)
        ~policy:Onll_nvm.Crash_policy.Drop_all;
      let module S2 = Service.Make (M) in
      let t2 = S2.make ~max_staleness:8 construction in
      check Alcotest.int (name ^ ": every confirmed op survives, once") 3
        (S2.counter_value t2);
      check Alcotest.bool (name ^ ": A's Hello reads its op applied") true
        (S2.handle t2 (S2.conn ()) (hello_eo ~client:0)
        = Protocol.Attached
            { next_seq = 2; resolution = Protocol.W_applied 1 }))
    [ Service.Plain; Service.Mirrored; Service.Sharded; Service.Batched ]

(* Client A's second op fails under a flush storm, its drain with it.
   While the storm lasts the relaxed tail cannot drain, so a new
   connection's Hello cannot know that the entry it reads is durable: it
   answers [W_unresolved] with the last applied seq and counts it. Once
   the storm ends, the next Hello drains the tail and answers
   [W_applied]. *)
let test_unresolved_hello () =
  List.iter
    (fun construction ->
      let name = Service.construction_name construction in
      let sim = Sim.create ~max_processes:1 () in
      let module M = (val Sim.machine sim) in
      let module S = Service.Make (M) in
      let registry = Onll_obs.Metrics.create () in
      let t = S.make ~sink:(Onll_obs.Sink.make ~registry ()) construction in
      let unresolved () =
        Onll_obs.Metrics.counter_value registry "serve.resolved.unresolved"
      in
      let a = S.conn () in
      ignore (S.handle t a (hello_eo ~client:0) : Protocol.resp);
      check Alcotest.bool (name ^ ": A's first op acks") true
        (S.handle t a (submit_req 0) = Protocol.Acked { seq = 0; value = 1 });
      let storm =
        Faults.install (Sim.memory sim)
          {
            Faults.Plan.none with
            seed = 5;
            flush_fail_prob = 1.0;
            max_consecutive_transients = 1_000_000;
            target =
              (fun region ->
                let parts = String.split_on_char '.' region in
                List.mem "plog" parts || List.mem "relaxcoord" parts);
          }
      in
      check Alcotest.bool (name ^ ": A's second op is indeterminate") true
        (S.handle t a (submit_req 1) = Protocol.Refused Protocol.R_timeout);
      check Alcotest.bool (name ^ ": a Hello in the storm is unresolved") true
        (S.handle t (S.conn ()) (hello_eo ~client:0)
        = Protocol.Attached
            { next_seq = 1; resolution = Protocol.W_unresolved 0 });
      check Alcotest.int (name ^ ": and counted") 1 (unresolved ());
      Faults.remove storm;
      (match S.handle t (S.conn ()) (hello_eo ~client:0) with
      | Protocol.Attached { next_seq; resolution = Protocol.W_applied last }
        when last = next_seq - 1 ->
          ()
      | _ -> Alcotest.failf "%s: the Hello after the storm is not applied" name);
      check Alcotest.int (name ^ ": counted once") 1 (unresolved ()))
    [ Service.Plain; Service.Mirrored ]

(* A store whose every fsync fails goes sticky-degraded at the first
   exactly-once submit that fences, which is refused [R_degraded]. From
   then on the session refuses writes before it runs them: another
   client's submit is refused too, counted as the session's refusal, and
   applies nowhere. Reads still answer. *)
let test_degraded_store () =
  let dir = fresh_dir () in
  let fm = Fm.create ~retry_budget:1 ~backoff_ns:0 ~dir ~max_processes:1 () in
  ignore (Fm.register fm);
  let module M = (val Fm.machine fm) in
  let module S = Service.Make (M) in
  let registry = Onll_obs.Metrics.create () in
  let t = S.make ~sink:(Onll_obs.Sink.make ~registry ()) Service.Plain in
  let a = S.conn () and b = S.conn () in
  ignore (S.handle t a (hello_eo ~client:0) : Protocol.resp);
  ignore (S.handle t b (hello_eo ~client:1) : Protocol.resp);
  let inj =
    Faults.install_file (Fm.memory fm)
      {
        Faults.File_plan.none with
        fsync_eio_from = 1;
        fsync_eio_count = 1_000_000;
      }
  in
  check Alcotest.bool "the failed fence is refused degraded" true
    (S.handle t a (submit_req 0) = Protocol.Refused Protocol.R_degraded);
  check Alcotest.bool "the store is sticky-degraded" true (S.degraded t);
  let v = S.counter_value t in
  check Alcotest.bool "a later write is refused" true
    (S.handle t b (submit_req 0) = Protocol.Refused Protocol.R_degraded);
  check Alcotest.int "by the session, before it runs" 1
    (Onll_obs.Metrics.counter_value registry "session.refused");
  check Alcotest.int "and applied nowhere" v (S.counter_value t);
  check Alcotest.bool "reads still answer" true
    (S.handle t b (Protocol.Fetch { op = "" }) = Protocol.Got v);
  Faults.remove_file inj;
  Fm.close fm

(* {1 Recovery-complete serving across a file-machine restart} *)

let test_recovery_complete_restart () =
  let dir = fresh_dir () in
  (* life 1: client 7 attaches and applies one op *)
  let fm = Fm.create ~dir ~max_processes:1 () in
  ignore (Fm.register fm);
  let module M1 = (val Fm.machine fm) in
  let module S1 = Service.Make (M1) in
  let t1 = S1.make Service.Plain in
  let c1 = S1.conn () in
  (match S1.handle t1 c1 (hello_eo ~client:7) with
  | Protocol.Attached _ -> ()
  | _ -> Alcotest.fail "life-1 hello refused");
  (match S1.handle t1 c1 (submit_req 0) with
  | Protocol.Acked { value = 1; _ } -> ()
  | _ -> Alcotest.fail "life-1 submit not acked");
  S1.quiesce t1;
  Fm.close fm;
  (* life 2: [make] recovers the object, and the client table with it,
     before serving — nothing about client 7 is resolved lazily *)
  let fm2 = Fm.create ~dir ~max_processes:1 () in
  ignore (Fm.register fm2);
  let module M2 = (val Fm.machine fm2) in
  let module S2 = Service.Make (M2) in
  let t2 = S2.make Service.Plain in
  check Alcotest.int "the applied op survived the restart" 1
    (S2.counter_value t2);
  (* and the client's cursor came back with it *)
  (match S2.handle t2 (S2.conn ()) (hello_eo ~client:7) with
  | Protocol.Attached { next_seq = 1; resolution = Protocol.W_applied 0; _ }
    ->
      ()
  | Protocol.Attached { next_seq; _ } ->
      Alcotest.failf "life-2 next_seq = %d, wanted 1 with op 0 applied"
        next_seq
  | _ -> Alcotest.fail "life-2 hello refused");
  Fm.close fm2

(* {1 SIGTERM drain over a real socket} *)

(* Blocking client-side framing helpers (tests only). *)
let send_req fd req =
  let buf = Buffer.create 64 in
  Protocol.write_frame buf Protocol.req_codec req;
  let s = Buffer.to_bytes buf in
  let n = Bytes.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd s !off (n - !off)
  done

let recv_resp fd inbuf =
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Protocol.Inbuf.pop inbuf Protocol.resp_codec with
    | Some r -> Some r
    | None -> (
        match Unix.read fd chunk 0 4096 with
        | 0 -> None
        | n ->
            Protocol.Inbuf.add inbuf chunk n;
            go ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None)
  in
  go ()

(* Fork a server child over the native machine and return its pid and
   socket path once it listens. The child exits 0 after a clean drain. *)
let fork_server ?(construction = Service.Plain) ?(idle_timeout_ms = 30_000)
    ?(max_conns = 12_000) () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "srv.sock" in
  let ready_r, ready_w = Unix.pipe () in
  let child = Unix.fork () in
  if child = 0 then begin
    let code =
      try
        Unix.close ready_r;
        let nat = Native.create ~fence_ns:0 ~max_processes:1 () in
        ignore (Native.register nat);
        let module M = (val Native.machine nat) in
        let module Srv = Server.Make (M) in
        let svc = Srv.Svc.make construction in
        let scfg =
          {
            (Server.default_config ~socket_path:socket) with
            Server.idle_timeout_ms;
            max_conns;
            on_ready =
              (fun () ->
                ignore (Unix.write ready_w (Bytes.make 1 'R') 0 1);
                Unix.close ready_w);
          }
        in
        Srv.run svc scfg;
        0
      with _ -> 1
    in
    Unix._exit code
  end;
  Unix.close ready_w;
  check Alcotest.int "server came up" 1 (Unix.read ready_r (Bytes.create 1) 0 1);
  Unix.close ready_r;
  (child, socket)

let expect_clean_exit child =
  match Unix.waitpid [] child with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "server exited %d" n
  | _, _ -> Alcotest.fail "server killed by signal"

(* A server child; SIGTERM lands while the parent is mid-submit. Every
   in-flight op must be finished (Acked) or cleanly refused (R_draining /
   connection closed after a flush) — never left half-acked — and the
   child must exit 0 through the drain path. *)
let drain_scenario construction =
  let child, socket = fork_server ~construction () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let inbuf = Protocol.Inbuf.create () in
  send_req fd (Protocol.Hello { client = 0; token = "onll"; tier = Protocol.T_exactly_once });
  (match recv_resp fd inbuf with
  | Some (Protocol.Attached _) -> ()
  | _ -> Alcotest.fail "hello refused");
  let acked = ref 0 and drained = ref false and closed = ref false in
  let seq = ref 0 in
  let i = ref 0 in
  while (not !drained) && (not !closed) && !i < 200 do
    if !i = 20 then Unix.kill child Sys.sigterm;
    (match
       send_req fd
         (Protocol.Submit { seq = !seq; deadline_ns = 0; op = incr_op })
     with
    | () -> (
        match recv_resp fd inbuf with
        | Some (Protocol.Acked { seq = s; _ }) ->
            check Alcotest.int "acks arrive in submit order" !seq s;
            incr acked;
            incr seq
        | Some (Protocol.Refused Protocol.R_draining) -> drained := true
        | Some (Protocol.Refused Protocol.R_overloaded) -> ()
        | Some _ -> Alcotest.fail "unexpected response to submit"
        | None -> closed := true)
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> closed := true);
    incr i
  done;
  Unix.close fd;
  expect_clean_exit child;
  check Alcotest.bool "durable work happened before the drain" true
    (!acked > 0);
  check Alcotest.bool "the drain answered or cleanly closed" true
    (!drained || !closed);
  check Alcotest.bool "the socket file was removed on drain" false
    (Sys.file_exists socket)

let test_drain_plain () =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
  @@ fun () -> drain_scenario Service.Plain

let test_drain_mirrored () =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
  @@ fun () -> drain_scenario Service.Mirrored

(* {1 The socket loop over a forked server} *)

(* Run [f socket] against a forked server, then drain it; the server is
   killed if [f] fails. SIGPIPE is ignored so that a write to a closed
   connection surfaces as EPIPE. *)
let with_server ?idle_timeout_ms ?max_conns f =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
  @@ fun () ->
  let child, socket = fork_server ?idle_timeout_ms ?max_conns () in
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill child Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] child)
      end)
  @@ fun () ->
  f socket;
  Unix.kill child Sys.sigterm;
  reaped := true;
  expect_clean_exit child

type client = { fd : Unix.file_descr; inbuf : Protocol.Inbuf.t }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; inbuf = Protocol.Inbuf.create () }

let request c req =
  send_req c.fd req;
  match recv_resp c.fd c.inbuf with
  | Some r -> r
  | None -> Alcotest.fail "connection closed before the response"

let attach c ~client =
  match
    request c
      (Protocol.Hello { client; token = "onll"; tier = Protocol.T_exactly_once })
  with
  | Protocol.Attached { next_seq; _ } -> next_seq
  | _ -> Alcotest.failf "client %d: hello refused" client

let pong c =
  match request c Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> Alcotest.fail "ping not answered with pong"

(* Whether the server closed [c] within [secs]: its end reads EOF. *)
let closed_within c secs =
  match Unix.select [ c.fd ] [] [] secs with
  | [], _, _ -> false
  | _ -> (
      match Unix.read c.fd (Bytes.create 64) 0 64 with
      | 0 -> true
      | _ -> false
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true)

(* Three rounds of 64 connections that attach, submit and close, so fds
   and connection slots are reused. Connection k submits k mod 4 + 1 ops
   per round, pipelined; its acks must carry exactly its own session's
   sequence numbers (a response crossing connections would not). Half
   the connections close (by Bye or abruptly) in a shuffled order while
   the other half then submit once more. *)
let test_churn () =
  with_server @@ fun socket ->
  let rng = Random.State.make [| 26 |] in
  let per k = (k mod 4) + 1 in
  let acks = ref 0 in
  let submit_all c ~seq n =
    for i = 0 to n - 1 do
      send_req c.fd
        (Protocol.Submit { seq = seq + i; deadline_ns = 0; op = incr_op })
    done;
    for i = 0 to n - 1 do
      match recv_resp c.fd c.inbuf with
      | Some (Protocol.Acked { seq = s; _ }) ->
          check Alcotest.int "an ack of this session, in order" (seq + i) s;
          incr acks
      | _ -> Alcotest.fail "submit not acked"
    done
  in
  let close k c =
    if k mod 4 < 2 then begin
      (match request c Protocol.Bye with
      | Protocol.Gone -> ()
      | _ -> Alcotest.fail "bye not answered with gone");
      check Alcotest.bool "closed after gone" true (closed_within c 5.0)
    end;
    Unix.close c.fd
  in
  for round = 0 to 2 do
    let conns = Array.init 64 (fun _ -> connect socket) in
    let cursor =
      Array.mapi
        (fun k c ->
          let next = attach c ~client:k in
          check Alcotest.int "the session cursor survives reattach"
            (round * (per k + 1)) next;
          next)
        conns
    in
    Array.iteri (fun k c -> submit_all c ~seq:cursor.(k) (per k)) conns;
    let order = Array.init 64 Fun.id in
    for i = 63 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.iter (fun k -> if k mod 2 = 0 then close k conns.(k)) order;
    Array.iter
      (fun k ->
        if k mod 2 = 1 then begin
          submit_all conns.(k) ~seq:(cursor.(k) + per k) 1;
          close k conns.(k)
        end)
      order;
    (* the even connections submitted [per k] ops: pad their cursor *)
    Array.iteri
      (fun k _ ->
        if k mod 2 = 0 then begin
          let c = connect socket in
          ignore (attach c ~client:k);
          submit_all c ~seq:(cursor.(k) + per k) 1;
          Unix.close c.fd
        end)
      conns
  done;
  let c = connect socket in
  ignore (attach c ~client:0);
  (match request c (Protocol.Fetch { op = "" }) with
  | Protocol.Got v -> check Alcotest.int "the counter equals the acks" !acks v
  | _ -> Alcotest.fail "fetch not answered");
  Unix.close c.fd

(* With a 50 ms idle timeout the idle connection is closed while the busy
   one, pinging every 2 ms, is still answered. *)
let test_idle_reaping () =
  with_server ~idle_timeout_ms:50 @@ fun socket ->
  let idle = connect socket and busy = connect socket in
  ignore (attach idle ~client:0);
  ignore (attach busy ~client:1);
  let deadline = Unix.gettimeofday () +. 5.0 in
  let reaped = ref false in
  while (not !reaped) && Unix.gettimeofday () < deadline do
    pong busy;
    reaped := closed_within idle 0.002
  done;
  check Alcotest.bool "the idle connection was closed" true !reaped;
  pong busy;
  Unix.close idle.fd;
  Unix.close busy.fd

(* With [max_conns = 4], a fifth connection is closed at once and the
   first four still answer. *)
let test_connection_cap () =
  with_server ~max_conns:4 @@ fun socket ->
  let four = Array.init 4 (fun _ -> connect socket) in
  Array.iteri (fun k c -> ignore (attach c ~client:k)) four;
  let fifth = connect socket in
  check Alcotest.bool "the fifth connection is closed" true
    (closed_within fifth 5.0);
  Unix.close fifth.fd;
  Array.iter pong four;
  Array.iter (fun c -> Unix.close c.fd) four

(* 2,000 Fetch frames are pipelined before anything is read. After each
   frame a Ping round trip on a second connection makes sure the server
   has answered that frame in a write of its own, so the unread answers
   outgrow the socket buffer and the server must finish them through
   [pollout]. A Submit after every 100th Fetch steps the counter, so every
   answer's value fixes its place in the order. *)
let test_backlog () =
  with_server @@ fun socket ->
  let c = connect socket and pacer = connect socket in
  ignore (attach c ~client:0);
  ignore (attach pacer ~client:1);
  let send req =
    send_req c.fd req;
    pong pacer
  in
  for i = 0 to 1999 do
    send (Protocol.Fetch { op = "" });
    if i mod 100 = 99 then
      send (Protocol.Submit { seq = i / 100; deadline_ns = 0; op = incr_op })
  done;
  for i = 0 to 1999 do
    (match recv_resp c.fd c.inbuf with
    | Some (Protocol.Got v) -> check Alcotest.int "fetch answered in order" (i / 100) v
    | _ -> Alcotest.failf "fetch %d not answered" i);
    if i mod 100 = 99 then
      match recv_resp c.fd c.inbuf with
      | Some (Protocol.Acked { seq; _ }) ->
          check Alcotest.int "submit answered in order" (i / 100) seq
      | _ -> Alcotest.failf "submit after fetch %d not acked" i
  done;
  pong c;
  Unix.close c.fd;
  Unix.close pacer.fd

(* A peer that hangs up with answers still unread is dropped at once, not
   kept (and reported ready on every poll) until the idle timeout: with
   [max_conns = 2], two fresh clients must both attach once the hung-up
   connection and the pacer that filled its socket (as in [test_backlog])
   have left. *)
let test_hangup_with_backlog () =
  with_server ~max_conns:2 @@ fun socket ->
  let c = connect socket and pacer = connect socket in
  ignore (attach c ~client:0);
  ignore (attach pacer ~client:1);
  for _ = 1 to 1000 do
    send_req c.fd (Protocol.Fetch { op = "" });
    pong pacer
  done;
  Unix.close pacer.fd;
  Unix.close c.fd;
  (* two fresh connections: one more than a kept dead connection allows *)
  let attached client =
    let c = connect socket in
    match
      send_req c.fd
        (Protocol.Hello { client; token = "onll"; tier = Protocol.T_exactly_once });
      recv_resp c.fd c.inbuf
    with
    | Some (Protocol.Attached _) -> Some c
    | _ | (exception Unix.Unix_error _) ->
        Unix.close c.fd;
        None
  in
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec join () =
    match (attached 2, attached 3) with
    | Some a, Some b -> (a, b)
    | a, b ->
        Option.iter (fun c -> Unix.close c.fd) a;
        Option.iter (fun c -> Unix.close c.fd) b;
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "the hung-up connection still holds its slot";
        Unix.sleepf 0.01;
        join ()
  in
  let a, b = join () in
  pong a;
  pong b;
  Unix.close a.fd;
  Unix.close b.fd

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "framing roundtrip + oversized prefix" `Quick
            test_framing;
          Alcotest.test_case "handle policy: auth, seq, drain, reads" `Quick
            test_handle_policy;
          Alcotest.test_case "durability tiers: strict / staleness-k" `Quick
            test_tiers;
          Alcotest.test_case "1 fence per exactly-once submit, 0 per read"
            `Quick test_fences;
          Alcotest.test_case "frames decoded in place at every split" `Quick
            test_framing_in_place;
          Alcotest.test_case "a degraded store takes no exactly-once write"
            `Quick test_degraded_store;
        ] );
      ( "table",
        [
          QCheck_alcotest.to_alcotest prop_table_dedups;
          Alcotest.test_case "state and update codecs round-trip" `Quick
            test_table_codec;
          Alcotest.test_case "routes as the inner operation" `Quick
            test_table_routing;
        ] );
      ( "admission",
        [
          Alcotest.test_case "2 x 5000 exactly-once submits, none shed"
            `Quick test_no_cliff;
          Alcotest.test_case "exactly-once heap stays flat" `Quick
            test_heap_flat;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "poll waits for the earliest due event" `Quick
            test_poll_timeout;
        ] );
      ( "netpoll",
        [
          Alcotest.test_case "an interrupted wait reports nothing" `Quick
            test_netpoll_eintr;
          Alcotest.test_case "swap-remove keeps the other indices" `Quick
            test_netpoll_swap_remove;
        ] );
      ( "restart",
        [
          Alcotest.test_case "an in-flight op across crash and compactions"
            `Quick test_phantom_apply;
          Alcotest.test_case "staleness then exactly-once, both survive"
            `Quick test_stale_then_exactly_once;
          Alcotest.test_case "a failed op is durable before Hello reports it"
            `Quick test_failed_op_durable_before_hello;
          Alcotest.test_case "a resubmitted pending op applies once" `Quick
            test_resubmit_after_a_pending_op;
          Alcotest.test_case "recovery-complete serving after restart" `Quick
            test_recovery_complete_restart;
          Alcotest.test_case "a Hello during a flush storm is unresolved"
            `Quick test_unresolved_hello;
        ] );
      ( "server",
        [
          Alcotest.test_case "3 x 64 connections churn, no crossed response"
            `Quick test_churn;
          Alcotest.test_case "idle connection reaped, busy one answered"
            `Quick test_idle_reaping;
          Alcotest.test_case "connection cap closes the fifth" `Quick
            test_connection_cap;
          Alcotest.test_case "2000 pipelined fetches answered in order"
            `Quick test_backlog;
          Alcotest.test_case "a hung-up peer with unread answers is dropped"
            `Quick test_hangup_with_backlog;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM drain over a socket (plain)" `Quick
            test_drain_plain;
          Alcotest.test_case "SIGTERM drain over a socket (mirrored)" `Quick
            test_drain_mirrored;
        ] );
    ]
