(* Deterministic unit tests for the `onll serve` front-end (E18): wire
   framing, the region-naming audit, the service's protocol policy over
   an in-memory machine, the identity allocator's never-reuse contract
   across a file-machine restart, recovery-complete serving, and the
   SIGTERM drain over a real socket (plain and mirrored). The
   randomized/adversarial coverage lives in the E18 chaos campaign
   ([test_support/service_chaos.ml]); these are the pinned specimens. *)

open Onll_machine
module Fm = Onll_machine.File_machine
module Cs = Onll_specs.Counter
module Codec = Onll_util.Codec
module Protocol = Onll_serve.Protocol
module Service = Onll_serve.Service
module Server = Onll_serve.Server
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

(* A server child over the native machine; SIGTERM lands while the parent
   is mid-submit. Every in-flight op must be finished (Acked) or cleanly
   refused (R_draining / connection closed after a flush) — never left
   half-acked — and the child must exit 0 through the drain path. *)
let drain_scenario construction =
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
            Server.on_ready =
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
  (match Unix.waitpid [] child with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "server exited %d" n
  | _, _ -> Alcotest.fail "server killed by signal");
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
      ( "drain",
        [
          Alcotest.test_case "SIGTERM drain over a socket (plain)" `Quick
            test_drain_plain;
          Alcotest.test_case "SIGTERM drain over a socket (mirrored)" `Quick
            test_drain_mirrored;
        ] );
    ]
