(* Deterministic unit tests for the `onll serve` front-end (E18): wire
   framing, the region-naming audit, the service's protocol policy over
   an in-memory machine, the identity allocator's never-reuse contract
   across a file-machine restart, recovery-complete serving, the
   persistent poll set, the socket loop over a forked server (churn, idle
   reaping, the connection cap, a pipelined backlog, a hung-up peer), and
   the SIGTERM drain over a real socket (plain and mirrored). The
   randomized/adversarial coverage lives in the E18 chaos campaign
   ([test_support/service_chaos.ml]); these are the pinned specimens. *)

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

(* {1 Region naming: injective across the whole client-id range} *)

let test_region_names_injective () =
  let seen = Hashtbl.create 20_000 in
  for client = 0 to 9_999 do
    let name = Service.region_name ~client in
    (match Hashtbl.find_opt seen name with
    | Some other ->
        Alcotest.failf "clients %d and %d share region %S" other client name
    | None -> ());
    Hashtbl.replace seen name client
  done;
  check Alcotest.int "10k distinct region names" 10_000 (Hashtbl.length seen)

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
  (* the session-region accounting moves exactly once per client *)
  let rb0 = Svc.region_bytes t in
  (match h (Protocol.Hello { client = 1; token = "secret"; tier = Protocol.T_exactly_once }) with
  | Protocol.Attached { next_seq = 0; resolution = Protocol.W_none; _ } -> ()
  | r -> Alcotest.failf "hello: %s" (match r with
      | Protocol.Refused ref ->
          Format.asprintf "refused %a" Protocol.pp_refusal ref
      | _ -> "unexpected response shape"));
  let rb1 = Svc.region_bytes t in
  check Alcotest.bool "attach reserves session-region bytes" true (rb1 > rb0);
  ignore (h (Protocol.Hello { client = 1; token = "secret"; tier = Protocol.T_exactly_once }) : Protocol.resp);
  check Alcotest.int "re-attach reserves nothing new" rb1 (Svc.region_bytes t);
  (* the exactly-once submit path *)
  check Alcotest.bool "first submit acks value 1" true
    (h (Protocol.Submit { seq = 0; deadline_ns = 0; op = incr_op })
    = Protocol.Acked { seq = 0; value = 1 });
  check Alcotest.bool "stale seq refused with the expected one" true
    (h (Protocol.Submit { seq = 0; deadline_ns = 0; op = incr_op })
    = Protocol.Refused (Protocol.R_bad_seq 1));
  check Alcotest.bool "undecodable op refused" true
    (h (Protocol.Submit { seq = 1; deadline_ns = 0; op = "\xff\xff\xff" })
    = Protocol.Refused Protocol.R_bad_op);
  check Alcotest.bool "read sees the one applied op" true
    (h (Protocol.Fetch { op = "" }) = Protocol.Got 1);
  check Alcotest.int "counter agrees" 1 (Svc.counter_value t);
  (* drain policy *)
  Svc.drain t;
  check Alcotest.bool "hello while draining refused" true
    (h (Protocol.Hello { client = 2; token = "secret"; tier = Protocol.T_exactly_once })
    = Protocol.Refused Protocol.R_draining);
  check Alcotest.bool "submit while draining refused" true
    (h (Protocol.Submit { seq = 1; deadline_ns = 0; op = incr_op })
    = Protocol.Refused Protocol.R_draining);
  check Alcotest.bool "reads still answer while draining" true
    (h (Protocol.Fetch { op = "" }) = Protocol.Got 1);
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
     object log: far past the ~700 updates the log holds. Admission
     compacts whenever the fill reaches the watermark, so nothing is
     shed and the counter equals the acks. *)
  let nat = Native.create ~fence_ns:0 ~max_processes:1 () in
  ignore (Native.register nat);
  let module M = (val Native.machine nat) in
  let module Svc = Service.Make (M) in
  let t = Svc.make Service.Plain in
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

(* {1 No compaction past an in-doubt identity} *)

let test_guard_in_doubt () =
  (* Client 1's intent append meets failing fences until its session
     times out: the intent (object identity X) stays queued and the next
     fence, client 2's, makes it durable, but X never reached the object.
     Client 1 then stays away while client 2 drives the object log past
     the watermark again and again. Compacting with X in doubt would
     checkpoint a floor above X, and any later resolution would vouch
     for X as applied: a lost update. So before it compacts the service
     resolves X itself (X is denied, the op re-invoked under a fresh
     identity); nothing is shed, and client 1 finds its op applied
     exactly once, live and after a crash. *)
  let dir = fresh_dir () in
  let log_capacity = 4096 in
  let fm = Fm.create ~dir ~max_processes:1 () in
  ignore (Fm.register fm);
  let module M1 = (val Fm.machine fm) in
  let module S1 = Service.Make (M1) in
  let registry1 = Onll_obs.Metrics.create () in
  let t1 =
    S1.make ~sink:(Onll_obs.Sink.make ~registry:registry1 ()) ~log_capacity
      Service.Plain
  in
  let submit conn seq =
    S1.handle t1 conn (Protocol.Submit { seq; deadline_ns = 0; op = incr_op })
  in
  let ca = S1.conn () and cb = S1.conn () in
  ignore (hello_ok (S1.handle t1 ca) ~client:1);
  ignore (hello_ok (S1.handle t1 cb) ~client:2);
  check Alcotest.bool "client 1's first op acks" true
    (submit ca 0 = Protocol.Acked { seq = 0; value = 1 });
  let inj =
    Faults.install_file (Fm.memory fm)
      {
        Faults.File_plan.none with
        base =
          {
            Faults.Plan.none with
            seed = 3;
            fence_fail_prob = 1.0;
            max_consecutive_transients = 1_000_000;
          };
      }
  in
  check Alcotest.bool "client 1's second op times out in doubt" true
    (submit ca 1 = Protocol.Refused Protocol.R_timeout);
  Faults.remove_file inj;
  let acks_b = ref 0 and sheds = ref 0 in
  for i = 1 to 400 do
    match submit cb !acks_b with
    | Protocol.Acked _ -> incr acks_b
    | Protocol.Refused Protocol.R_overloaded -> incr sheds
    | _ -> Alcotest.failf "client 2, submit %d: unexpected response" i
  done;
  check Alcotest.int "an absent client's in-doubt op does not stop compaction"
    0 !sheds;
  check Alcotest.int "the server re-invoked the in-doubt op once" 1
    (Onll_obs.Metrics.counter_value registry1 "serve.resolved.reinvoked");
  check Alcotest.int "live: counter = acks + the resolved op"
    (2 + !acks_b) (S1.counter_value t1);
  (* client 1 comes back: nothing is pending, and [next_seq] past its
     op tells it the op was applied (the protocol's resolution rule) *)
  let ca' = S1.conn () in
  (match
     S1.handle t1 ca'
       (Protocol.Hello
          { client = 1; token = "onll"; tier = Protocol.T_exactly_once })
   with
  | Protocol.Attached { next_seq; resolution = Protocol.W_none; _ } ->
      check Alcotest.bool "op 1 is behind the session's next_seq" true
        (1 < next_seq)
  | _ -> Alcotest.fail "client 1: re-attach should report nothing pending");
  (* crash: close the store with nothing more fenced *)
  Fm.close fm;
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let fm2 = Fm.create ~dir ~max_processes:1 () in
  ignore (Fm.register fm2);
  let module M2 = (val Fm.machine fm2) in
  let module S2 = Service.Make (M2) in
  let t2 = S2.make ~sink ~log_capacity Service.Plain in
  let next_seq = hello_ok (S2.handle t2 (S2.conn ())) ~client:1 in
  check Alcotest.bool "after restart, op 1 still reads as applied" true
    (1 < next_seq);
  check Alcotest.int "nothing left to re-invoke at restart" 0
    (Onll_obs.Metrics.counter_value registry "serve.resolved.reinvoked");
  check Alcotest.int "exactly once: counter = acks + the resolved op"
    (2 + !acks_b) (S2.counter_value t2);
  Fm.close fm2

(* {1 The identity allocator never re-hands an identity across restart} *)

let test_oseq_restart_never_reuses () =
  let dir = fresh_dir () in
  let drawn = ref [] in
  (* life 1: draw from a block of 8, then die with the tail unused *)
  let fm = Fm.create ~dir ~max_processes:1 () in
  ignore (Fm.register fm);
  let module M1 = (val Fm.machine fm) in
  let module S1 = Service.Make (M1) in
  let o1 = S1.Oseq.create ~block:8 () in
  S1.Oseq.recover o1;
  for _ = 1 to 5 do
    drawn := S1.Oseq.next o1 :: !drawn
  done;
  check Alcotest.int "block reservation is durable up front" 8
    (S1.Oseq.watermark o1);
  Fm.close fm;
  (* life 2: the unused tail of the block is abandoned, never re-handed *)
  let fm2 = Fm.create ~dir ~max_processes:1 () in
  ignore (Fm.register fm2);
  let module M2 = (val Fm.machine fm2) in
  let module S2 = Service.Make (M2) in
  let o2 = S2.Oseq.create ~block:8 () in
  S2.Oseq.recover o2;
  check Alcotest.bool "restart resumes at the durable watermark" true
    (S2.Oseq.watermark o2 >= 8);
  for _ = 1 to 10 do
    let id = S2.Oseq.next o2 in
    if List.mem id !drawn then
      Alcotest.failf "identity %d re-handed after restart" id
  done;
  Fm.close fm2

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
  (match S1.handle t1 c1 (Protocol.Hello { client = 7; token = "onll"; tier = Protocol.T_exactly_once }) with
  | Protocol.Attached _ -> ()
  | _ -> Alcotest.fail "life-1 hello refused");
  (match
     S1.handle t1 c1 (Protocol.Submit { seq = 0; deadline_ns = 0; op = incr_op })
   with
  | Protocol.Acked { value = 1; _ } -> ()
  | _ -> Alcotest.fail "life-1 submit not acked");
  S1.quiesce t1;
  Fm.close fm;
  (* life 2: [make] must re-attach the directory's clients before serving
     — an in-doubt identity resolved lazily would be unsound, see the
     directory comment in [Service] *)
  let fm2 = Fm.create ~dir ~max_processes:1 () in
  ignore (Fm.register fm2);
  let module M2 = (val Fm.machine fm2) in
  let module S2 = Service.Make (M2) in
  let t2 = S2.make Service.Plain in
  check Alcotest.bool "directory re-attached client 7 before serving" true
    (S2.sessions t2 >= 1);
  check Alcotest.int "the applied op survived the restart" 1
    (S2.counter_value t2);
  (* and the client's cursors came back with it *)
  let c2 = S2.conn () in
  (match S2.handle t2 c2 (Protocol.Hello { client = 7; token = "onll"; tier = Protocol.T_exactly_once }) with
  | Protocol.Attached { next_seq = 1; _ } -> ()
  | Protocol.Attached { next_seq; _ } ->
      Alcotest.failf "life-2 next_seq = %d, wanted 1" next_seq
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
        ] );
      ( "admission",
        [
          Alcotest.test_case "2 x 5000 exactly-once submits, none shed"
            `Quick test_no_cliff;
          Alcotest.test_case "no compaction past an in-doubt identity" `Quick
            test_guard_in_doubt;
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
      ( "regions",
        [
          Alcotest.test_case "10k region names are injective" `Quick
            test_region_names_injective;
        ] );
      ( "restart",
        [
          Alcotest.test_case "oseq never re-hands an identity" `Quick
            test_oseq_restart_never_reuses;
          Alcotest.test_case "recovery-complete serving after restart" `Quick
            test_recovery_complete_restart;
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
