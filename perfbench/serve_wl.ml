(* serve-eo-mem, serve-stale-mem and serve-eo-file: `onll serve` driven
   over its socket by the generator, two connections (nproc = 2), closed
   loop; the traced run adds an open-loop pass.

   A round: first the recovery phase, on a server of its own over a
   file-backed store that the phase first fills with updates: several
   SIGKILLs with an update in flight on each connection, each followed by
   a restart on the same store until both sessions are re-attached and
   resolved, so every restart recovers a populated store from disk. Then,
   on a fresh store, several set-ups (the last server stays), the
   measured window and the round's check. Set-up and restart are short,
   so a run reports the median of many; throughput and the p50s are
   medians over the rounds.

   serve-eo-mem and serve-eo-file: plain construction, exactly-once tier;
   the window runs on the in-memory native machine (500 ns emulated
   fence) or on a file-backed store (real fsync fences). After each
   recovery phase the exactly-once audit checks how the in-doubt updates
   were resolved.

   serve-stale-mem: in-memory native machine, stale:8 tier. A crash may
   lose up to 8 acked updates (the staleness tail), so the recovery phase
   checks the counter against the acked count within that loss; the
   window's check is the acked count after drain. *)

module Protocol = Onll_serve.Protocol
module Samples = Stats.Samples

type workload = {
  file_backed : bool;  (* the window's store *)
  tier : Protocol.tier;
  per_round : int;  (* closed loop: ops per connection in a round's window *)
  rounds_per_10s : int;  (* rounds per 10 s of --seconds *)
  open_hz : float;  (* the traced run's open-loop pass: rate per connection *)
  limit_us : float;  (* latency limit for ok_frac *)
}

let rounds wl ~seconds = max 1 (wl.rounds_per_10s * seconds / 10)

(* Per round: set-ups (the last server stays) and SIGKILLs. *)
let setups = 2
let kills = 2

(* Ops per connection that a recovery phase runs before its first kill,
   one read in five: ~240 confirmed updates, well under the ~704 at which
   the exactly-once tier stops confirming writes (NOTES.md). *)
let fill_per_client = 150

(* Between firing the in-flight updates and the SIGKILL, a seeded pause
   of up to one fsync'd update, so that kills land before, inside and
   after the update's fences. *)
let kill_delay_s = 0.001

(* All run in rounds, each on a fresh store or server (NOTES.md): the
   exactly-once tier stops confirming writes after ~704 updates on a
   fresh store, and a served object keeps its whole history in memory, so
   a stale-mem server slows down as its heap grows, by ~15% over 25k ops
   per connection; its rounds are kept short. *)
let eo_file =
  { file_backed = true; tier = Protocol.T_exactly_once;
    per_round = 1500; rounds_per_10s = 12; open_hz = 100.; limit_us = 10_000. } [@ocamlformat "disable"]

let eo_mem =
  { file_backed = false; tier = Protocol.T_exactly_once;
    per_round = 1500; rounds_per_10s = 20; open_hz = 500.; limit_us = 1_000. } [@ocamlformat "disable"]

let stale_mem =
  { file_backed = false; tier = Protocol.T_staleness 8;
    per_round = 6250; rounds_per_10s = 12; open_hz = 1000.; limit_us = 1_000. } [@ocamlformat "disable"]

let clients_n = 2

(* {1 Scratch directory and server processes} *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

(* Relative to the checkout root, which keeps socket paths short. *)
let run_dir = Printf.sprintf "perfbench/_run/%d" (Unix.getpid ())

let fresh_dir name =
  let d = Filename.concat run_dir name in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

type server = { pid : int; out : Unix.file_descr }

(* Servers not yet reaped, killed by [kill_all] when a run aborts. *)
let live = ref []

let wait_ready out =
  let buf = Bytes.create 256 in
  let deadline = Stats.now_s () +. 60. in
  let rec go acc =
    if Stats.now_s () > deadline then failwith "server did not report READY";
    match Unix.select [ out ] [] [] 1. with
    | [], _, _ -> go acc
    | _ -> (
        match Unix.read out buf 0 256 with
        | 0 -> failwith "server exited before READY"
        | n ->
            let acc = acc ^ Bytes.sub_string buf 0 n in
            if String.length acc >= 5 && String.sub acc 0 5 = "READY" && String.contains acc '\n'
            then ()
            else go acc)
  in
  go ""

let spawn ~onll ~socket ~dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let args =
    Array.of_list
      ([ onll; "serve"; "--socket"; socket ] @ match dir with Some d -> [ "--dir"; d ] | None -> [])
  in
  let pid = Unix.create_process onll args null w Unix.stderr in
  Unix.close w;
  Unix.close null;
  live := pid :: !live;
  wait_ready r;
  { pid; out = r }

let reap s =
  ignore (Unix.waitpid [] s.pid);
  live := List.filter (( <> ) s.pid) !live;
  Unix.close s.out

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap s

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap s

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Flush the store filesystem: the set-ups' and earlier rounds' deleted
   stores leave journal and writeback work that would otherwise land in
   the timed restarts or window, on the fsyncs they time. *)
let settle () =
  let pid = Unix.create_process "sync" [| "sync"; "-f"; run_dir |] Unix.stdin Unix.stdout Unix.stderr in
  ignore (Unix.waitpid [] pid)

(* {1 One untraced pass} *)

(* The exactly-once audit needs the ledger; relaxed tiers do no dedup,
   so their check is the acked count. *)
let new_ledger wl = if wl.tier = Protocol.T_exactly_once then Some (Checks.Ledger.create ()) else None

let check ledger ~acked ~counter_value =
  match ledger with
  | Some l -> Checks.Ledger.check_final l ~counter_value
  | None -> Checks.check_acked ~acked ~counter_value ()

type pass = {
  tally : Duegen.tally;
  setup : float list;
  recover : float list;
  ready : float list;  (* spawn to READY, per restart *)
  reattach_ms : float list;  (* READY to both sessions attached and resolved *)
  thr : float list;  (* per round: confirmed ops per second of its window *)
  upd_p50 : float list;  (* per round *)
  rd_p50 : float list;
  rss_mb : float;
  adopted : int;  (* exactly-once: in-doubt updates a restart found applied *)
  dropped : int;  (* and found never applied *)
  lost : int;  (* relaxed tiers: acked updates the crashes lost *)
  violations : string list;
}

(* Spawn a server and attach both clients: set-up, or a restart on an
   existing directory. Returns (spawn-to-READY, READY-to-attached). *)
let bring_up ~onll ~wl ~socket ~dir ?ledger clients =
  let t0 = Stats.now_s () in
  let s = spawn ~onll ~socket ~dir in
  let t1 = Stats.now_s () in
  Array.iter (fun c -> Duegen.attach ?ledger c ~path:socket ~tier:wl.tier) clients;
  (s, t1 -. t0, Stats.now_s () -. t1)

let run_pass ~onll ~wl ~seed ~seconds =
  let socket = Filename.concat run_dir "s.sock" in
  let clients = Array.init clients_n (Duegen.client ~seed) in
  let t = Duegen.tally () in
  let peak = ref 0. and violations = ref [] in
  let setup = ref [] and recover = ref [] and ready = ref [] and reattach = ref [] in
  let thr = ref [] and upd_p50 = ref [] and rd_p50 = ref [] in
  let rng = Onll_util.Splitmix.create (seed + 1) in
  let adopted = ref 0 and dropped = ref 0 and lost = ref 0 in
  (* SIGKILL with an update in flight on each connection, restart on the
     same store, re-attach and resolve; on a server of its own, so that
     restarts do not disturb the window *)
  let recovery () =
    let dir = Some (fresh_dir "kstore") in
    let ledger = new_ledger wl in
    let s, _, _ = bring_up ~onll ~wl ~socket ~dir ?ledger clients in
    let fill = Duegen.tally () in
    Duegen.segment fill ~ledger ~clients ~load:Closed ~per_client:fill_per_client ~limit_us:wl.limit_us;
    violations := !violations @ List.rev fill.errors;
    settle ();
    let s = ref s in
    for _ = 1 to kills do
      Array.iter (Duegen.fire ~ledger) clients;
      Unix.sleepf (Onll_util.Splitmix.float rng kill_delay_s);
      let t0 = Stats.now_s () in
      kill !s;
      let s', r, a = bring_up ~onll ~wl ~socket ~dir ?ledger clients in
      recover := (Stats.now_s () -. t0) :: !recover;
      ready := r :: !ready;
      reattach := (a *. 1e3) :: !reattach;
      s := s'
    done;
    let counter_value = Duegen.read_counter clients.(0) in
    (match (ledger, wl.tier) with
    | Some l, _ ->
        violations := !violations @ Checks.Ledger.check_final l ~counter_value;
        adopted := !adopted + l.adopted;
        dropped := !dropped + l.dropped
    | None, tier ->
        let k = match tier with Protocol.T_staleness k -> k | _ -> 0 in
        violations :=
          !violations
          @ Checks.check_acked ~in_flight:(kills * clients_n) ~max_lost:(kills * k)
              ~acked:fill.acked ~counter_value ();
        lost := !lost + max 0 (fill.acked - counter_value));
    Array.iter Duegen.disconnect clients;
    stop !s
  in
  for _ = 1 to rounds wl ~seconds do
    recovery ();
    (* set-up, repeated on a fresh store each time; the last one stays *)
    let dir = if wl.file_backed then Some (Filename.concat run_dir "store") else None in
    let server = ref None in
    for i = 1 to setups do
      let t0 = Stats.now_s () in
      if wl.file_backed then ignore (fresh_dir "store" : string);
      let s, _, _ = bring_up ~onll ~wl ~socket ~dir clients in
      setup := (Stats.now_s () -. t0) :: !setup;
      if i < setups then begin
        Array.iter Duegen.disconnect clients;
        kill s
      end
      else server := Some s
    done;
    if wl.file_backed then settle ();
    let ledger = new_ledger wl and acked = t.acked and w0 = t.window_ns in
    let u0 = Samples.count t.upd and r0 = Samples.count t.rd in
    Duegen.segment t ~ledger ~clients ~load:Closed ~per_client:wl.per_round ~limit_us:wl.limit_us;
    let upd = Samples.since t.upd u0 and rd = Samples.since t.rd r0 in
    thr :=
      (float_of_int (Samples.count upd + Samples.count rd) /. (float_of_int (t.window_ns - w0) /. 1e9))
      :: !thr;
    upd_p50 := Samples.median upd :: !upd_p50;
    rd_p50 := Samples.median rd :: !rd_p50;
    let counter_value = Duegen.read_counter clients.(0) in
    violations := !violations @ check ledger ~acked:(t.acked - acked) ~counter_value;
    let s = Option.get !server in
    peak := Float.max !peak (Stats.peak_rss_mb (string_of_int s.pid));
    Array.iter Duegen.disconnect clients;
    stop s
  done;
  {
    tally = t; setup = !setup; recover = !recover; ready = !ready;
    reattach_ms = !reattach; thr = !thr; upd_p50 = !upd_p50; rd_p50 = !rd_p50; rss_mb = !peak;
    adopted = !adopted; dropped = !dropped; lost = !lost;
    violations = List.rev t.errors @ !violations;
  } [@ocamlformat "disable"]

(* The due-time generator's health: two seconds of open-loop load at the
   workload's rate against `onll serve` on a fresh store, for
   [loadgen.late_p99_us]. Open-loop tails on the reference VM follow the
   host's vCPU scheduling (NOTES.md), so the measured windows run closed
   loop and this pass reports only how late the generator sent. *)
let late_flag_us = 100.

let open_pass ~onll ~wl ~seed =
  let socket = Filename.concat run_dir "o.sock" in
  let dir = if wl.file_backed then Some (fresh_dir "ostore") else None in
  let clients = Array.init clients_n (Duegen.client ~seed) in
  let s, _, _ = bring_up ~onll ~wl ~socket ~dir clients in
  let t = Duegen.tally () in
  Duegen.segment t ~ledger:None ~clients ~load:(Open wl.open_hz)
    ~per_client:(int_of_float (2. *. wl.open_hz)) ~limit_us:wl.limit_us;
  Array.iter Duegen.disconnect clients;
  stop s;
  t

let e2e p =
  let t = p.tally in
  let m = Stats.m in
  [
    m "setup_s" "s" (Stats.median_of p.setup);
    m "recover_s" "s" (Stats.median_of p.recover);
    m "throughput_ops_s" "ops/s" (Stats.median_of p.thr);
    m "update_p50_us" "us" (Stats.median_of p.upd_p50);
    m "update_p99_slice_median_us" "us" (Stats.Samples.slice_p99 t.upd);
    m "read_p50_us" "us" (Stats.median_of p.rd_p50);
    m "read_p99_slice_median_us" "us" (Stats.Samples.slice_p99 t.rd);
    m "ok_frac" "ratio" (float_of_int t.ok /. float_of_int t.attempted);
    m "peak_rss_mb" "MiB" p.rss_mb;
  ]

(* {1 The traced run}

   Two more passes after the untraced one, over the timing machine
   [Timed.Machine]:
   - a socket pass against a benchmark-built server, [Server.Make] over the
     wrapped machine (the functor code `onll serve` runs), in a forked
     child that writes its machine accounting to a file when drained. It
     runs one round's window, without kills: the restart metrics come
     from the untraced pass.
   - an in-process replay of the socket pass's request stream through
     [Service.Make(...).handle], timing the frame codec and [handle].
   The open-loop pass ([open_pass]) runs after them. *)

(* The machine the traced server and the replay run on, with the fsync
   reader installed. *)
let machine ~wl ~dir =
  if wl.file_backed then begin
    let fm = Onll_machine.File_machine.create ~dir ~max_processes:1 () in
    ignore (Onll_machine.File_machine.register fm);
    let mem = Onll_machine.File_machine.memory fm in
    let base = (Onll_nvm.File_memory.stats mem).fsyncs in
    Timed.fsyncs := (fun () -> (Onll_nvm.File_memory.stats mem).fsyncs - base);
    Onll_machine.File_machine.machine fm
  end
  else begin
    let nat = Onll_machine.Native.create ~fence_ns:500 ~max_processes:1 () in
    ignore (Onll_machine.Native.register nat);
    Onll_machine.Native.machine nat
  end

let child_server ~wl ~socket ~dir ~stats_path ~ready_w =
  let module M = Timed.Machine ((val machine ~wl ~dir)) in
  let module Srv = Onll_serve.Server.Make (M) in
  let svc = Srv.Svc.make Onll_serve.Service.Plain in
  let cfg =
    { (Onll_serve.Server.default_config ~socket_path:socket) with
      on_ready = (fun () -> ignore (Unix.write_substring ready_w "READY\n" 0 6)) }
  in
  Srv.run svc cfg;
  let oc = open_out_bin stats_path in
  Marshal.to_channel oc (Timed.summary ()) [];
  close_out oc

type traced_socket = {
  t_tally : Duegen.tally;
  summary : Timed.summary;  (* the child's machine accounting *)
  t_violations : string list;
}

let socket_pass ~wl ~seed =
  let socket = Filename.concat run_dir "t.sock" in
  let dir = if wl.file_backed then fresh_dir "tstore" else run_dir in
  let stats_path = Filename.concat run_dir "child.stats" in
  let r, w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        try
          child_server ~wl ~socket ~dir ~stats_path ~ready_w:w;
          0
        with e ->
          prerr_endline ("traced server: " ^ Printexc.to_string e);
          2
      in
      Unix._exit code
  | pid ->
      Unix.close w;
      live := pid :: !live;
      let s = { pid; out = r } in
      wait_ready r;
      let clients = Array.init clients_n (Duegen.client ~seed) in
      let ledger = new_ledger wl in
      Array.iter (fun c -> Duegen.attach ?ledger c ~path:socket ~tier:wl.tier) clients;
      let t = Duegen.tally ~log_sends:true () in
      Duegen.segment t ~ledger ~clients ~load:Closed ~per_client:wl.per_round ~limit_us:wl.limit_us;
      let counter_value = Duegen.read_counter clients.(0) in
      Array.iter Duegen.disconnect clients;
      stop s;
      {
        t_tally = t;
        summary =
          (let ic = open_in_bin stats_path in
           Fun.protect ~finally:(fun () -> close_in ic) (fun () -> (Marshal.from_channel ic : Timed.summary)));
        t_violations = List.rev t.errors @ check ledger ~acked:t.acked ~counter_value;
      }

type replay = {
  handle_ns : int;
  handles : int;
  upd_self_ns : int;
  upds : int;
  read_self_ns : int;
  rds : int;
  codec_ns : int;
  frame_bytes : int;
  wall_ns : int;
}

let replay ~wl ~stream =
  let dir = if wl.file_backed then fresh_dir "rstore" else run_dir in
  let module M = Timed.Machine ((val machine ~wl ~dir)) in
  let module Svc = Onll_serve.Service.Make (M) in
  let svc = Svc.make Onll_serve.Service.Plain in
  let conns = Array.init clients_n (fun _ -> Svc.conn ()) in
  let next_seq = Array.make clients_n 0 in
  let handle_ns = ref 0 and codec_ns = ref 0 and bytes = ref 0 in
  let upd_self = ref 0 and upds = ref 0 and rd_self = ref 0 and rds = ref 0 in
  let inb = Protocol.Inbuf.create () and b = Buffer.create 64 in
  (* one round trip: the request framed and parsed, handled, the response
     framed and parsed, each step timed *)
  let round c req =
    let t0 = Stats.now_ns () in
    Buffer.clear b;
    Protocol.write_frame b Protocol.req_codec req;
    let n = Buffer.length b in
    Protocol.Inbuf.add inb (Buffer.to_bytes b) n;
    let req = Option.get (Protocol.Inbuf.pop inb Protocol.req_codec) in
    let mk = Timed.mark () in
    let t1 = Stats.now_ns () in
    let resp = Svc.handle svc conns.(c) req in
    let t2 = Stats.now_ns () in
    Buffer.clear b;
    Protocol.write_frame b Protocol.resp_codec resp;
    let n' = Buffer.length b in
    Protocol.Inbuf.add inb (Buffer.to_bytes b) n';
    let resp = Option.get (Protocol.Inbuf.pop inb Protocol.resp_codec) in
    let t3 = Stats.now_ns () in
    codec_ns := !codec_ns + (t1 - t0) + (t3 - t2);
    handle_ns := !handle_ns + (t2 - t1);
    bytes := !bytes + n + n';
    (resp, Timed.self_ns mk ~t0:t1 ~t1:t2)
  in
  Array.iteri
    (fun c _ -> ignore (round c (Protocol.Hello { client = c; token = "onll"; tier = wl.tier })))
    conns;
  let h0 = !handle_ns and c0 = !codec_ns and b0 = !bytes in
  let w0 = Stats.now_ns () in
  List.iter
    (fun (c, kind) ->
      match (kind : Duegen.kind) with
      | Update -> (
          let resp, self =
            round c (Protocol.Submit { seq = next_seq.(c); deadline_ns = 0; op = Duegen.counter_op })
          in
          upd_self := !upd_self + self;
          incr upds;
          match resp with Protocol.Acked { seq; _ } -> next_seq.(c) <- seq + 1 | _ -> ())
      | Read ->
          let _, self = round c (Protocol.Fetch { op = "" }) in
          rd_self := !rd_self + self;
          incr rds)
    stream;
  {
    handle_ns = !handle_ns - h0; handles = !upds + !rds; upd_self_ns = !upd_self;
    upds = !upds; read_self_ns = !rd_self; rds = !rds; codec_ns = !codec_ns - c0;
    frame_bytes = !bytes - b0; wall_ns = Stats.now_ns () - w0;
  } [@ocamlformat "disable"]

let per_layer ~(untraced : pass) ~(sp : traced_socket) ~(rp : replay) ~(op : Duegen.tally) =
  let m = Stats.m in
  let t = untraced.tally and st = sp.t_tally in
  let per n k = if k = 0 then 0. else float_of_int n /. float_of_int k /. 1e3 in
  let handle_us = per rp.handle_ns rp.handles and codec_us = per rp.codec_ns rp.handles in
  Timed.machine_metrics sp.summary ~updates:st.acked ~window_ns:st.window_ns
  @ [
      (* Service.Make fixes the counter spec, so the spec layer cannot be
         wrapped on the serve path *)
      m "spec.apply_us" "us" 0.;
      m "spec.read_us" "us" 0.;
      m "spec.codec_us" "us" 0.;
      m "spec.state_encode_ms" "ms" 0.;
      (* above the machine on the request path: service, session and
         core together — spans inside the program would split them *)
      m "core.update_self_us" "us" (per rp.upd_self_ns rp.upds);
      m "core.read_self_us" "us" (per rp.read_self_ns rp.rds);
      m "core.checkpoint_ms" "ms" 0.;
      m "core.checkpoint_share" "ratio" 0.;
      m "session.shed_frac" "ratio" (Timed.div t.shed t.submits);
      m "service.handle_us" "us" handle_us;
      m "protocol.codec_us" "us" codec_us;
      m "protocol.bytes_per_op" "B" (Timed.div rp.frame_bytes rp.handles);
      (* the round trip of the socket pass, less that pass's own machine
         time, the replay's handle time above the machine, and the codec *)
      m "server.socket_us" "us"
        (Samples.mean st.rtt
        -. per sp.summary.s_machine_ns st.attempted
        -. per (rp.upd_self_ns + rp.read_self_ns) rp.handles
        -. codec_us);
      m "server.restart_ready_s" "s" (Stats.median_of untraced.ready);
      m "service.reattach_ms" "ms" (Stats.median_of untraced.reattach_ms);
      m "tail.update_p99_pooled_us" "us" (Samples.p99 t.upd);
      m "tail.read_p99_pooled_us" "us" (Samples.p99 t.rd);
      m "loadgen.late_p99_us" "us" (Samples.quantile op.late 0.99);
      m "trace.overhead_frac" "ratio" (Samples.mean st.rtt /. Samples.mean t.rtt -. 1.);
      m "trace.coverage" "ratio" (float_of_int (rp.handle_ns + rp.codec_ns) /. float_of_int rp.wall_ns);
    ]
