(* E18: the network front-end crash harness.

   Two layers, like the E17 store harness (file_chaos.ml):

   - IN-PROCESS, DETERMINISTIC (gate material): drive
     {!Onll_serve.Service.Make.handle} directly over a file-backed
     machine with Raise-mode kill plans — no sockets, no clocks, no
     subprocesses. The injected crash escapes [handle] (the service
     deliberately does not catch it), the store is closed unfsynced, and
     the next epoch reopens the directory, re-Hellos every client and
     applies the protocol's resolution rule. Counters from these slices
     are byte-stable and gate-golden.

   - OUT-OF-PROCESS (the campaign): spawn `onll serve` subprocesses over
     real sockets, arm the file fault injector so the server SIGKILLs
     itself mid-fence (or fsync-EIOs into sticky degradation), drive them
     with the in-process {!Onll_serve.Loadgen} under one cross-pass
     {!Onll_serve.Loadgen.Audit}, and close each scenario with a
     resolve-only pass against a clean server plus a direct counter
     read. Arms: seeded SIGKILL storms (plain and mirrored),
     disconnect/reattach floods with SIGTERM-mid-load drain, and a
     degraded-media drill. The audit's verdict is the tentpole claim:
     0 duplicate applies, 0 lost acks, every in-doubt op resolved.

   Both layers count into {!Campaign} tallies and sum into its rows. *)

module Faults = Onll_faults.Faults
module Fm = Onll_machine.File_machine
module Cs = Onll_specs.Counter
module Metrics = Onll_obs.Metrics
module Service = Onll_serve.Service
module Protocol = Onll_serve.Protocol
module Loadgen = Onll_serve.Loadgen

let fresh_dir () = Temp_dir.fresh ~prefix:"onll-e18"

let inc_op = Onll_util.Codec.encode Cs.update_codec Cs.Increment

(* Where to kill inside the epoch's fence sequence. The server fences at
   startup (recovery) and once per served update, so small quotas die
   early in the epoch and larger ones mid-serving; quotas grow with the
   epoch so recovery's own fences (which grow with the surviving log)
   eventually fit under them. *)
let kill_point ~seed ~epoch =
  ( 3 + (3 * epoch) + (seed mod 5),
    [| 0; 1; 3; -1 |].((seed + epoch) mod 4) )

(* {1 In-process deterministic slices (Raise mode)} *)

(* A restart scenario's counts: with [runs] and [violations], its rows'
   gated keys. *)
let restart_counts = [ "epochs"; "kills"; "acks"; "confirmed"; "adopted" ]

(* One scenario: a few protocol clients increment the shared counter to
   [target] acknowledgements across as many crash-restart epochs as the
   seeded kill schedule forces. *)
let run_restart_scenario ~construction ~target ~seed =
  let t = Campaign.tally () in
  let dir = fresh_dir () in
  let nclients = 3 in
  let confirmed : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let confirm ~client ~seq =
    if Hashtbl.mem confirmed (client, seq) then
      Campaign.fail t "client %d seq %d confirmed twice" client seq
    else begin
      Hashtbl.replace confirmed (client, seq) ();
      Campaign.bump t "confirmed"
    end
  in
  (* the seq each client was last seen attempting (in doubt on crash) *)
  let attempt = Array.make nclients (-1) in
  let next = Array.make nclients 0 in
  let finished = ref false in
  let epoch = ref 0 in
  let max_epochs = (3 * target) + 8 in
  while (not !finished) && !epoch < max_epochs do
    let fmach = Fm.create ~dir ~max_processes:1 () in
    let kill_at_fence, kill_after_sectors =
      kill_point ~seed ~epoch:!epoch
    in
    let fplan =
      {
        Faults.File_plan.none with
        kill_at_fence;
        kill_after_sectors;
        kill_mode = Faults.File_plan.Raise;
      }
    in
    let inj = Faults.install_file (Fm.memory fmach) fplan in
    ignore (Fm.register fmach);
    let module M = (val Fm.machine fmach) in
    let module Srv = Service.Make (M) in
    let finish () =
      Faults.remove_file inj;
      Fm.close fmach
    in
    Campaign.bump t "epochs";
    (try
       let svc = Srv.make ~log_capacity:4096 construction in
       let conns = Array.init nclients (fun _ -> Srv.conn ()) in
       for i = 0 to nclients - 1 do
         match
           Srv.handle svc conns.(i)
             (Protocol.Hello { client = i; token = "onll"; tier = Protocol.T_exactly_once })
         with
         | Protocol.Attached { next_seq; acked = _; resolution } ->
             next.(i) <- next_seq;
             (match resolution with
             | Protocol.W_none | Protocol.W_applied _ -> ()
             | _ -> Campaign.fail t "unresolved under Raise faults");
             (* the protocol's rule: an attempt below [next_seq] was
                applied and the crash ate its ack; one at or above it
                never was, and is resubmitted below under [next_seq] *)
             if attempt.(i) >= 0 && attempt.(i) < next_seq then begin
               confirm ~client:i ~seq:attempt.(i);
               Campaign.bump t "adopted"
             end;
             attempt.(i) <- -1
         | Protocol.Refused r ->
             Campaign.fail t "hello answered %s"
               (Format.asprintf "%a" Protocol.pp_refusal r)
         | _ -> Campaign.fail t "hello answered non-attach"
       done;
       let i = ref 0 in
       while Hashtbl.length confirmed < target do
         let c = !i mod nclients in
         incr i;
         let seq = next.(c) in
         attempt.(c) <- seq;
         (match
            Srv.handle svc conns.(c)
              (Protocol.Submit { seq; deadline_ns = 0; op = inc_op })
          with
         | Protocol.Acked { seq = s; value = _ } ->
             confirm ~client:c ~seq:s;
             Campaign.bump t "acks";
             next.(c) <- s + 1;
             attempt.(c) <- -1
         | Protocol.Refused (Protocol.R_bad_seq expected) ->
             next.(c) <- expected;
             attempt.(c) <- -1
         | Protocol.Refused r ->
             Campaign.fail t "submit refused: %s"
               (Format.asprintf "%a" Protocol.pp_refusal r);
             attempt.(c) <- -1
         | _ -> Campaign.fail t "submit got a non-ack")
       done;
       let v = Srv.counter_value svc in
       if v <> Hashtbl.length confirmed then
         Campaign.fail t "counter %d, confirmed %d" v
           (Hashtbl.length confirmed);
       finished := true;
       finish ()
     with Onll_nvm.Memory.Injected_crash ->
       Campaign.bump t "kills";
       finish ());
    incr epoch
  done;
  if not !finished then Campaign.fail t "scenario never completed";
  Temp_dir.rm_rf dir;
  t

let restart_arm ~name ~construction ~seeds =
  Campaign.tally_arm ~name ~seeds ~keys:restart_counts (fun seed ->
      run_restart_scenario ~construction ~target:6 ~seed:(seed - 1))

(* Protocol policy surface, deterministically: refusals, injectivity,
   drain semantics — no faults, one epoch. *)
let run_policy_slice reg =
  let c name v = Metrics.add (Metrics.counter reg name) v in
  let dir = fresh_dir () in
  let fmach = Fm.create ~dir ~max_processes:1 () in
  ignore (Fm.register fmach);
  let module M = (val Fm.machine fmach) in
  let module Srv = Service.Make (M) in
  let svc =
    Srv.make ~log_capacity:4096 ~token:"sesame" ~max_clients:100 Service.Plain
  in
  let refusal conn req =
    match Srv.handle svc conn req with
    | Protocol.Refused r -> Some r
    | _ -> None
  in
  let conn = Srv.conn () in
  let hits = ref 0 in
  let expect what = if what then incr hits in
  expect
    (refusal conn (Protocol.Submit { seq = 0; deadline_ns = 0; op = inc_op })
    = Some Protocol.R_not_attached);
  expect
    (refusal conn (Protocol.Hello { client = 1; token = "wrong"; tier = Protocol.T_exactly_once })
    = Some Protocol.R_bad_token);
  expect
    (refusal conn (Protocol.Hello { client = 100; token = "sesame"; tier = Protocol.T_exactly_once })
    = Some Protocol.R_bad_client);
  (match Srv.handle svc conn (Protocol.Hello { client = 1; token = "sesame"; tier = Protocol.T_exactly_once })
   with
  | Protocol.Attached { next_seq = 0; _ } -> incr hits
  | _ -> ());
  expect
    (refusal conn (Protocol.Submit { seq = 5; deadline_ns = 0; op = inc_op })
    = Some (Protocol.R_bad_seq 0));
  expect
    (refusal conn
       (Protocol.Submit { seq = 0; deadline_ns = 0; op = "\255garbage" })
    = Some Protocol.R_bad_op);
  (match
     Srv.handle svc conn
       (Protocol.Submit { seq = 0; deadline_ns = 0; op = inc_op })
   with
  | Protocol.Acked { seq = 0; value = 1 } -> incr hits
  | _ -> ());
  (match Srv.handle svc conn (Protocol.Fetch { op = "" }) with
  | Protocol.Got 1 -> incr hits
  | _ -> ());
  expect (Srv.handle svc conn Protocol.Ping = Protocol.Pong);
  (* a small population: every client its own table entry, one counter *)
  for client = 2 to 41 do
    let cn = Srv.conn () in
    (match
       Srv.handle svc cn (Protocol.Hello { client; token = "sesame"; tier = Protocol.T_exactly_once })
     with
    | Protocol.Attached _ -> ()
    | _ -> ());
    match
      Srv.handle svc cn (Protocol.Submit { seq = 0; deadline_ns = 0; op = inc_op })
    with
    | Protocol.Acked _ -> ()
    | _ -> ()
  done;
  (* the table's entries, each read by a fence-free Hello *)
  let entries = ref 0 in
  for client = 0 to 99 do
    match
      Srv.handle svc (Srv.conn ())
        (Protocol.Hello { client; token = "sesame"; tier = Protocol.T_exactly_once })
    with
    | Protocol.Attached { resolution = Protocol.W_applied _; _ } -> incr entries
    | _ -> ()
  done;
  Srv.drain svc;
  expect
    (refusal (Srv.conn ()) (Protocol.Hello { client = 50; token = "sesame"; tier = Protocol.T_exactly_once })
    = Some Protocol.R_draining);
  expect
    (refusal conn (Protocol.Submit { seq = 1; deadline_ns = 0; op = inc_op })
    = Some Protocol.R_draining);
  (match Srv.handle svc conn (Protocol.Fetch { op = "" }) with
  | Protocol.Got 41 -> incr hits
  | _ -> ());
  expect (Srv.handle svc conn Protocol.Bye = Protocol.Gone);
  c "e18.policy.checks" !hits;
  c "e18.policy.value" (Srv.counter_value svc);
  c "e18.policy.sessions" !entries;
  Fm.close fmach;
  Temp_dir.rm_rf dir

(* Exactly-once across a restart and later compactions. Client A's
   second submit is cut at its fence — before any write, and again at
   the fsync point after every write — the service restarts, client B
   submits until at least 3 compactions have run, and A re-attaches and
   resubmits under the [next_seq] it was given; a retry of the same seq
   after that must be acknowledged without a second apply. Every
   confirmation is counted once: the counter must equal them, with no
   duplicate and no lost ack. *)
let run_dedup_slice reg =
  let c name v = Metrics.add (Metrics.counter reg name) v in
  let eo = Protocol.T_exactly_once in
  List.iter
    (fun kill_after_sectors ->
      let dir = fresh_dir () in
      let confirmed = Hashtbl.create 256 and duplicates = ref 0 in
      let confirm ~client ~seq =
        if Hashtbl.mem confirmed (client, seq) then incr duplicates
        else Hashtbl.replace confirmed (client, seq) ()
      in
      let open_store () =
        let fmach = Fm.create ~dir ~max_processes:1 () in
        ignore (Fm.register fmach);
        fmach
      in
      (* life 1: A's seq 0 is acked, its seq 1 cut at the fence *)
      let fmach = open_store () in
      (let module M = (val Fm.machine fmach) in
       let module Srv = Service.Make (M) in
       let svc = Srv.make ~log_capacity:4096 ~max_clients:8 Service.Plain in
       let a = Srv.conn () in
       let req = Srv.handle svc a in
       ignore (req (Protocol.Hello { client = 0; token = "onll"; tier = eo }));
       (match req (Protocol.Submit { seq = 0; deadline_ns = 0; op = inc_op }) with
       | Protocol.Acked { seq; _ } -> confirm ~client:0 ~seq
       | _ -> failwith "dedup slice: A's first submit not acked");
       let inj =
         Faults.install_file (Fm.memory fmach)
           {
             Faults.File_plan.none with
             kill_at_fence = 1;
             kill_after_sectors;
             kill_mode = Faults.File_plan.Raise;
           }
       in
       match req (Protocol.Submit { seq = 1; deadline_ns = 0; op = inc_op }) with
       | _ -> failwith "dedup slice: A's second submit was not cut"
       | exception Onll_nvm.Memory.Injected_crash -> Faults.remove_file inj);
      Fm.close fmach;
      (* life 2: B drives compactions, then A comes back *)
      let fmach = open_store () in
      let module M = (val Fm.machine fmach) in
      let module Srv = Service.Make (M) in
      let registry = Metrics.create () in
      let svc =
        Srv.make ~sink:(Onll_obs.Sink.make ~registry ()) ~log_capacity:4096
          ~max_clients:8 Service.Plain
      in
      let compactions () = Metrics.counter_value registry "checkpoints" in
      let b = Srv.conn () in
      ignore
        (Srv.handle svc b (Protocol.Hello { client = 1; token = "onll"; tier = eo }));
      let seq = ref 0 in
      while compactions () < 3 && !seq < 5_000 do
        (match
           Srv.handle svc b
             (Protocol.Submit { seq = !seq; deadline_ns = 0; op = inc_op })
         with
        | Protocol.Acked { seq; _ } -> confirm ~client:1 ~seq
        | _ -> failwith "dedup slice: B's submit not acked");
        incr seq
      done;
      let a = Srv.conn () in
      let submit seq =
        Srv.handle svc a (Protocol.Submit { seq; deadline_ns = 0; op = inc_op })
      in
      (match
         Srv.handle svc a (Protocol.Hello { client = 0; token = "onll"; tier = eo })
       with
      | Protocol.Attached { next_seq; _ } when 1 < next_seq ->
          (* the cut op was applied: its ack is the re-attach *)
          confirm ~client:0 ~seq:1;
          c "e18.dedup.adopted" 1
      | Protocol.Attached { next_seq; _ } -> (
          match submit next_seq with
          | Protocol.Acked { seq; _ } ->
              confirm ~client:0 ~seq;
              c "e18.dedup.resubmitted" 1
          | _ -> failwith "dedup slice: A's resubmit not acked")
      | _ -> failwith "dedup slice: A's hello refused");
      (* a retry of the settled op is acknowledged, not applied again *)
      let before = Srv.counter_value svc in
      (match submit 1 with
      | Protocol.Acked { seq = 1; value } when value = before -> ()
      | Protocol.Acked _ -> incr duplicates
      | _ -> failwith "dedup slice: A's retry not acked");
      let value = Srv.counter_value svc and n = Hashtbl.length confirmed in
      c "e18.dedup.runs" 1;
      c "e18.dedup.compactions" (compactions ());
      c "e18.dedup.confirmed" n;
      c "e18.dedup.value" value;
      c "e18.dedup.duplicates" (!duplicates + max 0 (value - n));
      c "e18.dedup.lost" (max 0 (n - value));
      Fm.close fmach;
      Temp_dir.rm_rf dir)
    [ 0; -1 ]

(* The dedup slice's verdict: both cuts confirmed once each, nothing
   duplicated or lost, and the counter equal to the confirmations. *)
let assert_dedup reg =
  let v k = Metrics.counter_value reg ("e18.dedup." ^ k) in
  assert (v "runs" = 2);
  assert (v "duplicates" = 0);
  assert (v "lost" = 0);
  assert (v "value" = v "confirmed");
  assert (v "compactions" >= 6)

let gate_slices reg =
  List.iter
    (fun (name, construction) ->
      let row = restart_arm ~name ~construction ~seeds:3 in
      List.iter (Printf.eprintf "e18 violation: %s\n%!") row.violations;
      ignore
        (Campaign.to_metrics ~reg
           ~keys:(("runs" :: restart_counts) @ [ "violations" ])
           ~prefix:("e18." ^ name) row))
    [
      ("restart.plain", Service.Plain);
      ("restart.mirrored", Service.Mirrored);
    ];
  run_policy_slice reg;
  run_dedup_slice reg

(* {1 The out-of-process campaign (kill -9 over sockets)} *)

(* A socket scenario's counts, in table order. *)
let campaign_counts =
  [
    "spawns"; "passes"; "kills"; "drains"; "degraded"; "confirmed"; "sheds";
    "reconnects";
  ]

let server_args ~dir ~socket ~construction extra =
  [
    "serve";
    "--socket=" ^ socket;
    "--dir=" ^ dir;
    "--construction=" ^ Service.construction_name construction;
    "--drain-grace-ms=1500";
  ]
  @ extra

let spawn_server t ~worker args =
  Campaign.bump t "spawns";
  let r, w = Unix.pipe () in
  let pid =
    Unix.create_process worker
      (Array.of_list (worker :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  (pid, Unix.in_channel_of_descr r)

(* Block until the server prints READY, or dies trying (a kill armed at
   a startup fence): the pipe closes and waitpid collects the corpse. *)
let wait_ready (pid, ic) =
  let rec go () =
    match input_line ic with
    | line when String.length line >= 5 && String.sub line 0 5 = "READY" ->
        `Ready
    | _ -> go ()
    | exception End_of_file ->
        let _, st = Unix.waitpid [] pid in
        `Died st
  in
  go ()

let reap (pid, ic) =
  let _, st = Unix.waitpid [] pid in
  close_in ic;
  st

let stop t ~expect_exit (pid, ic) =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  match reap (pid, ic) with
  | Unix.WEXITED n when n = expect_exit -> Campaign.bump t "drains"
  | st ->
      Campaign.fail t "server drain: expected exit %d, got %s" expect_exit
        (Campaign.status_to_string st)

let fold_pass t (rep : Loadgen.report) =
  Campaign.bump t "passes";
  Campaign.bump t "confirmed" ~by:rep.Loadgen.r_confirmed;
  Campaign.bump t "sheds" ~by:rep.Loadgen.r_shed;
  Campaign.bump t "reconnects" ~by:rep.Loadgen.r_reconnects

let pass_cfg ~socket ~seed ~duration_ms ~clients =
  {
    (Loadgen.default_config ~socket_path:socket) with
    Loadgen.clients;
    rate_hz = 40.;
    duration_ms;
    seed;
    deadline_ms = 300;
    max_attempts = 6;
    backoff_base_ms = 1;
    backoff_cap_ms = 16;
    connect_timeout_ms = 700;
  }

(* Close a scenario: clean server, resolve-only pass (every in-doubt op
   adopted / re-invoked / definitively resubmitted), direct counter read,
   the audit's verdict. *)
let final_resolve t ~worker ~dir ~socket ~construction ~audit ~seed =
  let h = spawn_server t ~worker (server_args ~dir ~socket ~construction []) in
  match wait_ready h with
  | `Died _ ->
      Campaign.fail t "final clean server died before READY";
      ignore (reap h)
  | `Ready -> (
      (* span every client that might still hold an in-doubt op (the
         flood arm runs more clients than the kill arms) *)
      let clients =
        max 6 (Loadgen.Audit.max_outstanding_client audit + 1)
      in
      let rep =
        Loadgen.run ~audit
          (pass_cfg ~socket ~seed:(seed + 9000) ~duration_ms:0 ~clients)
      in
      fold_pass t rep;
      stop t ~expect_exit:0 h;
      match rep.Loadgen.r_final_value with
      | None -> Campaign.fail t "final pass read no counter value"
      | Some v ->
          List.iter
            (Campaign.fail t "%s")
            (Loadgen.Audit.check_final audit ~counter_value:v))

let scenario_kill t ~worker ~dir ~construction ~seed =
  let socket = Filename.concat dir "srv.sock" in
  let audit = Loadgen.Audit.create () in
  let survived = ref false in
  let epoch = ref 0 in
  while (not !survived) && !epoch < 8 do
    let kill_at_fence, kill_after_sectors =
      kill_point ~seed ~epoch:!epoch
    in
    let h =
      spawn_server t ~worker
        (server_args ~dir ~socket ~construction
           [
             Printf.sprintf "--kill-at-fence=%d" kill_at_fence;
             Printf.sprintf "--kill-after-sectors=%d" kill_after_sectors;
             Printf.sprintf "--seed=%d" (seed + 1);
           ])
    in
    (match wait_ready h with
    | `Died (Unix.WSIGNALED s) when s = Sys.sigkill ->
        Campaign.bump t "kills";
        close_in (snd h)
    | `Died st ->
        Campaign.fail t "armed server died oddly before READY (%s)"
          (Campaign.status_to_string st);
        close_in (snd h)
    | `Ready -> (
        let rep =
          Loadgen.run ~audit
            (pass_cfg ~socket
               ~seed:((seed * 131) + !epoch)
               ~duration_ms:500 ~clients:6)
        in
        fold_pass t rep;
        match Unix.waitpid [ Unix.WNOHANG ] (fst h) with
        | 0, _ ->
            (* the armed kill never fired inside this pass *)
            stop t ~expect_exit:0 h;
            survived := true
        | _, Unix.WSIGNALED s when s = Sys.sigkill ->
            Campaign.bump t "kills";
            close_in (snd h)
        | _, st ->
            Campaign.fail t "armed server ended oddly mid-pass (%s)"
              (Campaign.status_to_string st);
            close_in (snd h)));
    incr epoch
  done;
  final_resolve t ~worker ~dir ~socket ~construction ~audit ~seed

(* Disconnect/reattach flood, then SIGTERM lands mid-load: every client
   is either answered or definitively refused R_draining — never left
   half-acked. *)
let scenario_flood t ~worker ~dir ~construction ~seed =
  let socket = Filename.concat dir "srv.sock" in
  let audit = Loadgen.Audit.create () in
  let h = spawn_server t ~worker (server_args ~dir ~socket ~construction []) in
  (match wait_ready h with
  | `Died _ ->
      Campaign.fail t "flood server died before READY";
      ignore (reap h)
  | `Ready ->
      let rep =
        Loadgen.run ~audit
          {
            (pass_cfg ~socket ~seed ~duration_ms:700 ~clients:12) with
            Loadgen.churn_every_ms = 80;
            churn_frac = 0.4;
          }
      in
      fold_pass t rep;
      (* drain under load: a forked sibling SIGTERMs the server while
         this process is mid-pass *)
      let killer = Unix.fork () in
      if killer = 0 then begin
        Unix.sleepf 0.25;
        (try Unix.kill (fst h) Sys.sigterm with Unix.Unix_error _ -> ());
        Unix._exit 0
      end;
      let rep2 =
        Loadgen.run ~audit
          (pass_cfg ~socket ~seed:(seed + 77) ~duration_ms:900 ~clients:12)
      in
      fold_pass t rep2;
      ignore (Unix.waitpid [] killer);
      (match reap h with
      | Unix.WEXITED 0 -> Campaign.bump t "drains"
      | st ->
          Campaign.fail t "flood server drain failed (%s)"
            (Campaign.status_to_string st)));
  final_resolve t ~worker ~dir ~socket ~construction ~audit ~seed

(* Sticky degradation mid-traffic: fsync EIO exhausts the retry budget,
   every later write is refused R_degraded (a protocol error, not a
   reset), the failed fence is never acked, and the server still drains
   (exit 3). A clean restart then resolves every in-doubt op. *)
let scenario_degraded t ~worker ~dir ~construction ~seed =
  let socket = Filename.concat dir "srv.sock" in
  let audit = Loadgen.Audit.create () in
  let h =
    spawn_server t ~worker
      (server_args ~dir ~socket ~construction
         [ "--fsync-eio-from=6"; "--fsync-eio-count=10000" ])
  in
  (match wait_ready h with
  | `Died _ ->
      Campaign.fail t "degraded-arm server died before READY";
      ignore (reap h)
  | `Ready ->
      let rep =
        Loadgen.run ~audit
          (pass_cfg ~socket ~seed ~duration_ms:600 ~clients:6)
      in
      fold_pass t rep;
      (try Unix.kill (fst h) Sys.sigterm with Unix.Unix_error _ -> ());
      (match reap h with
      | Unix.WEXITED 3 -> Campaign.bump t "degraded"
      | Unix.WEXITED 0 ->
          (* the EIO storm may start only after the traffic stopped *)
          Campaign.bump t "drains"
      | st ->
          Campaign.fail t "degraded server ended oddly (%s)"
            (Campaign.status_to_string st)));
  final_resolve t ~worker ~dir ~socket ~construction ~audit ~seed

(* Seeds [0, seeds) of the kill arms over plain and mirrored stores, and
   up to two of the flood and degraded drills; each scenario in its own
   directory under [dir]. *)
let run_campaign ~worker ~dir ~seeds =
  let arm name scenario construction ~seeds =
    Campaign.tally_arm ~name ~seeds ~keys:campaign_counts (fun seed ->
        let seed = seed - 1 in
        let t = Campaign.tally () in
        scenario t ~worker
          ~dir:(Temp_dir.sub dir (Printf.sprintf "%s-%d" name seed))
          ~construction ~seed;
        t)
  in
  [
    arm "kill.plain" scenario_kill Service.Plain ~seeds;
    arm "kill.mirrored" scenario_kill Service.Mirrored ~seeds;
    arm "flood" scenario_flood Service.Mirrored ~seeds:(min 2 seeds);
    arm "degraded" scenario_degraded Service.Plain ~seeds:(min 2 seeds);
  ]

let print_rows =
  Campaign.print
    ~title:
      "E18 — fault-storm campaign over sockets (SIGKILL storms, reattach \
       floods, SIGTERM mid-load, sticky degradation; 0 duplicate applies, \
       0 lost acks)"
    ~header:"arm"
    ~columns:
      (List.map
         (fun k -> (k, k))
         (("runs" :: "crashed" :: campaign_counts) @ [ "violations" ]))
