(* E18: the network front-end crash harness.

   Two layers, mirroring the E17 store harness (file_chaos.ml):

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
     0 duplicate applies, 0 lost acks, every in-doubt op resolved. *)

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
   startup (recovery, allocator reservation, session attach) and once per
   served update, so small quotas die during attach storms and larger
   ones mid-serving; quotas grow with the epoch so recovery's own fences
   (which grow with the surviving log) eventually fit under them. *)
let kill_point ~seed ~epoch =
  ( 3 + (3 * epoch) + (seed mod 5),
    [| 0; 1; 3; -1 |].((seed + epoch) mod 4) )

(* {1 In-process deterministic slices (Raise mode)} *)

type slice_totals = {
  mutable t_scenarios : int;
  mutable t_epochs : int;
  mutable t_kills : int;
  mutable t_acks : int;
  mutable t_confirmed : int;
  mutable t_adopted : int;
  mutable t_reinvoked : int;
  mutable t_violations : int;
}

let new_totals () =
  {
    t_scenarios = 0;
    t_epochs = 0;
    t_kills = 0;
    t_acks = 0;
    t_confirmed = 0;
    t_adopted = 0;
    t_reinvoked = 0;
    t_violations = 0;
  }

let slice_to_metrics reg ~prefix t =
  let c name v = Metrics.add (Metrics.counter reg (prefix ^ "." ^ name)) v in
  c "scenarios" t.t_scenarios;
  c "epochs" t.t_epochs;
  c "kills" t.t_kills;
  c "acks" t.t_acks;
  c "confirmed" t.t_confirmed;
  c "adopted" t.t_adopted;
  c "reinvoked" t.t_reinvoked;
  c "violations" t.t_violations

(* One scenario: a few protocol clients increment the shared counter to
   [target] acknowledgements across as many crash-restart epochs as the
   seeded kill schedule forces. *)
let run_restart_scenario ~construction ~target ~seed totals =
  let dir = fresh_dir () in
  let nclients = 3 in
  let confirmed : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let confirm ~client ~seq =
    if Hashtbl.mem confirmed (client, seq) then begin
      Printf.eprintf "e18 violation: client %d seq %d confirmed twice\n%!"
        client seq;
      totals.t_violations <- totals.t_violations + 1
    end
    else begin
      Hashtbl.replace confirmed (client, seq) ();
      totals.t_confirmed <- totals.t_confirmed + 1
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
    totals.t_epochs <- totals.t_epochs + 1;
    (try
       let svc =
         Srv.make
           ~session:{ Onll_session.default_config with log_capacity = 4096 }
           ~log_capacity:4096 ~oseq_block:32 construction
       in
       let conns = Array.init nclients (fun _ -> Srv.conn ()) in
       for i = 0 to nclients - 1 do
         match
           Srv.handle svc conns.(i)
             (Protocol.Hello { client = i; token = "onll"; tier = Protocol.T_exactly_once })
         with
         | Protocol.Attached { next_seq; acked = _; resolution } -> (
             next.(i) <- next_seq;
             match resolution with
             | Protocol.W_applied _ | Protocol.W_reinvoked _ ->
                 (* the resolved intent is session seq [next_seq - 1]; the
                    session re-reports it whenever its durable acked-cursor
                    lags the acks we actually received, so an already
                    confirmed seq is benign redelivery, not a new apply *)
                 let s = next_seq - 1 in
                 if not (Hashtbl.mem confirmed (i, s)) then begin
                   confirm ~client:i ~seq:s;
                   match resolution with
                   | Protocol.W_reinvoked _ ->
                       totals.t_reinvoked <- totals.t_reinvoked + 1
                   | _ -> totals.t_adopted <- totals.t_adopted + 1
                 end;
                 attempt.(i) <- -1
             | Protocol.W_refused _ -> attempt.(i) <- -1
             | Protocol.W_unresolved _ ->
                 Printf.eprintf
                   "e18 violation: unresolved under Raise faults\n%!";
                 totals.t_violations <- totals.t_violations + 1;
                 attempt.(i) <- -1
             | Protocol.W_none ->
                 if attempt.(i) >= 0 && attempt.(i) < next_seq then begin
                   (* applied and session-acked; the crash ate the ack *)
                   confirm ~client:i ~seq:attempt.(i);
                   totals.t_adopted <- totals.t_adopted + 1;
                   attempt.(i) <- -1
                 end
                 (* else: never durable — resubmitted below under the
                    session's cursor *))
         | resp ->
             Printf.eprintf "e18 violation: hello answered %s\n%!"
               (match resp with
               | Protocol.Refused r ->
                   Format.asprintf "%a" Protocol.pp_refusal r
               | _ -> "non-attach");
             totals.t_violations <- totals.t_violations + 1
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
             totals.t_acks <- totals.t_acks + 1;
             next.(c) <- s + 1;
             attempt.(c) <- -1
         | Protocol.Refused (Protocol.R_bad_seq expected) ->
             next.(c) <- expected;
             attempt.(c) <- -1
         | Protocol.Refused r ->
             Printf.eprintf "e18 violation: submit refused: %s\n%!"
               (Format.asprintf "%a" Protocol.pp_refusal r);
             totals.t_violations <- totals.t_violations + 1;
             attempt.(c) <- -1
         | _ ->
             Printf.eprintf "e18 violation: submit got a non-ack\n%!";
             totals.t_violations <- totals.t_violations + 1)
       done;
       let v = Srv.counter_value svc in
       if v <> Hashtbl.length confirmed then begin
         Printf.eprintf "e18 violation: counter %d, confirmed %d\n%!" v
           (Hashtbl.length confirmed);
         totals.t_violations <- totals.t_violations + 1
       end;
       finished := true;
       finish ()
     with Onll_nvm.Memory.Injected_crash ->
       totals.t_kills <- totals.t_kills + 1;
       finish ());
    incr epoch
  done;
  if not !finished then begin
    Printf.eprintf "e18 violation: scenario never completed\n%!";
    totals.t_violations <- totals.t_violations + 1
  end;
  totals.t_scenarios <- totals.t_scenarios + 1;
  Temp_dir.rm_rf dir

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
    Srv.make
      ~session:{ Onll_session.default_config with log_capacity = 4096 }
      ~log_capacity:4096 ~token:"sesame" ~max_clients:100 Service.Plain
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
  (* a small population: every client its own region, shared counter *)
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
  c "e18.policy.sessions" (Srv.sessions svc);
  c "e18.policy.region_bytes" (Srv.region_bytes svc);
  Fm.close fmach;
  Temp_dir.rm_rf dir

(* The allocator across a restart: the unused tail of a reserved block
   is abandoned, never re-handed. *)
let run_oseq_slice reg =
  let c name v = Metrics.add (Metrics.counter reg name) v in
  let dir = fresh_dir () in
  let first_run =
    let fmach = Fm.create ~dir ~max_processes:1 () in
    ignore (Fm.register fmach);
    let module M = (val Fm.machine fmach) in
    let module Srv = Service.Make (M) in
    let alloc = Srv.Oseq.create ~block:8 () in
    Srv.Oseq.recover alloc;
    let ids = List.init 5 (fun _ -> Srv.Oseq.next alloc) in
    let wm = Srv.Oseq.watermark alloc in
    Fm.close fmach;
    (ids, wm)
  in
  let ids, wm1 = first_run in
  let fmach = Fm.create ~dir ~max_processes:1 () in
  ignore (Fm.register fmach);
  let module M = (val Fm.machine fmach) in
  let module Srv = Service.Make (M) in
  let alloc = Srv.Oseq.create ~block:8 () in
  Srv.Oseq.recover alloc;
  let after = Srv.Oseq.next alloc in
  let reused = if List.mem after ids || after < wm1 then 1 else 0 in
  c "e18.oseq.handed" (List.length ids);
  c "e18.oseq.watermark" wm1;
  c "e18.oseq.restart_first" after;
  c "e18.oseq.reused" reused;
  Fm.close fmach;
  Temp_dir.rm_rf dir

let gate_slices reg =
  let plain = new_totals () in
  for seed = 0 to 2 do
    run_restart_scenario ~construction:Service.Plain ~target:6 ~seed plain
  done;
  slice_to_metrics reg ~prefix:"e18.restart.plain" plain;
  let mirrored = new_totals () in
  for seed = 0 to 2 do
    run_restart_scenario ~construction:Service.Mirrored ~target:6 ~seed
      mirrored
  done;
  slice_to_metrics reg ~prefix:"e18.restart.mirrored" mirrored;
  run_policy_slice reg;
  run_oseq_slice reg

(* {1 The out-of-process campaign (kill -9 over sockets)} *)

type campaign = {
  mutable c_scenarios : int;
  mutable c_spawns : int;
  mutable c_passes : int;
  mutable c_sigkills : int;
  mutable c_drains : int;
  mutable c_degraded : int;
  mutable c_confirmed : int;
  mutable c_sheds : int;
  mutable c_reconnects : int;
  mutable c_violations : string list;
}

let violation cam fmt =
  Printf.ksprintf (fun s -> cam.c_violations <- s :: cam.c_violations) fmt

let server_args ~dir ~socket ~construction extra =
  [
    "serve";
    "--socket=" ^ socket;
    "--dir=" ^ dir;
    "--construction=" ^ Service.construction_name construction;
    "--drain-grace-ms=1500";
  ]
  @ extra

let spawn_server ~worker args =
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

let stop cam ~expect_exit (pid, ic) =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (match reap (pid, ic) with
  | Unix.WEXITED n when n = expect_exit -> cam.c_drains <- cam.c_drains + 1
  | st ->
      violation cam "server drain: expected exit %d, got %s" expect_exit
        (match st with
        | Unix.WEXITED n -> Printf.sprintf "exit %d" n
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED _ -> "stopped"))

let fold_pass cam (rep : Loadgen.report) =
  cam.c_passes <- cam.c_passes + 1;
  cam.c_confirmed <- cam.c_confirmed + rep.Loadgen.r_confirmed;
  cam.c_sheds <- cam.c_sheds + rep.Loadgen.r_shed;
  cam.c_reconnects <- cam.c_reconnects + rep.Loadgen.r_reconnects

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
let final_resolve cam ~worker ~dir ~socket ~construction ~audit ~seed =
  let h = spawn_server ~worker (server_args ~dir ~socket ~construction []) in
  cam.c_spawns <- cam.c_spawns + 1;
  match wait_ready h with
  | `Died _ ->
      violation cam "final clean server died before READY";
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
      fold_pass cam rep;
      stop cam ~expect_exit:0 h;
      match rep.Loadgen.r_final_value with
      | None -> violation cam "final pass read no counter value"
      | Some v ->
          List.iter
            (fun s -> violation cam "%s" s)
            (Loadgen.Audit.check_final audit ~counter_value:v))

let scenario_kill cam ~worker ~dir ~construction ~seed =
  let socket = Filename.concat dir "srv.sock" in
  let audit = Loadgen.Audit.create () in
  let survived = ref false in
  let epoch = ref 0 in
  while (not !survived) && !epoch < 8 do
    let kill_at_fence, kill_after_sectors =
      kill_point ~seed ~epoch:!epoch
    in
    let h =
      spawn_server ~worker
        (server_args ~dir ~socket ~construction
           [
             Printf.sprintf "--kill-at-fence=%d" kill_at_fence;
             Printf.sprintf "--kill-after-sectors=%d" kill_after_sectors;
             Printf.sprintf "--seed=%d" (seed + 1);
           ])
    in
    cam.c_spawns <- cam.c_spawns + 1;
    (match wait_ready h with
    | `Died (Unix.WSIGNALED s) when s = Sys.sigkill ->
        cam.c_sigkills <- cam.c_sigkills + 1;
        close_in (snd h)
    | `Died st ->
        violation cam "armed server died oddly before READY (%s)"
          (match st with
          | Unix.WEXITED n -> Printf.sprintf "exit %d" n
          | _ -> "signal");
        close_in (snd h)
    | `Ready -> (
        let rep =
          Loadgen.run ~audit
            (pass_cfg ~socket
               ~seed:((seed * 131) + !epoch)
               ~duration_ms:500 ~clients:6)
        in
        fold_pass cam rep;
        match Unix.waitpid [ Unix.WNOHANG ] (fst h) with
        | 0, _ ->
            (* the armed kill never fired inside this pass *)
            stop cam ~expect_exit:0 h;
            survived := true
        | _, Unix.WSIGNALED s when s = Sys.sigkill ->
            cam.c_sigkills <- cam.c_sigkills + 1;
            close_in (snd h)
        | _, st ->
            violation cam "armed server ended oddly mid-pass (%s)"
              (match st with
              | Unix.WEXITED n -> Printf.sprintf "exit %d" n
              | _ -> "signal");
            close_in (snd h)));
    incr epoch
  done;
  final_resolve cam ~worker ~dir ~socket ~construction ~audit ~seed;
  cam.c_scenarios <- cam.c_scenarios + 1

(* Disconnect/reattach flood, then SIGTERM lands mid-load: every client
   is either answered or definitively refused R_draining — never left
   half-acked. *)
let scenario_flood cam ~worker ~dir ~construction ~seed =
  let socket = Filename.concat dir "srv.sock" in
  let audit = Loadgen.Audit.create () in
  let h = spawn_server ~worker (server_args ~dir ~socket ~construction []) in
  cam.c_spawns <- cam.c_spawns + 1;
  (match wait_ready h with
  | `Died _ ->
      violation cam "flood server died before READY";
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
      fold_pass cam rep;
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
      fold_pass cam rep2;
      ignore (Unix.waitpid [] killer);
      (match reap h with
      | Unix.WEXITED 0 -> cam.c_drains <- cam.c_drains + 1
      | st ->
          violation cam "flood server drain failed (%s)"
            (match st with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | _ -> "stopped")));
  final_resolve cam ~worker ~dir ~socket ~construction ~audit ~seed;
  cam.c_scenarios <- cam.c_scenarios + 1

(* Sticky degradation mid-traffic: fsync EIO exhausts the retry budget,
   every later write is refused R_degraded (a protocol error, not a
   reset), the failed fence is never acked, and the server still drains
   (exit 3). A clean restart then resolves every in-doubt op. *)
let scenario_degraded cam ~worker ~dir ~construction ~seed =
  let socket = Filename.concat dir "srv.sock" in
  let audit = Loadgen.Audit.create () in
  let h =
    spawn_server ~worker
      (server_args ~dir ~socket ~construction
         [ "--fsync-eio-from=6"; "--fsync-eio-count=10000" ])
  in
  cam.c_spawns <- cam.c_spawns + 1;
  (match wait_ready h with
  | `Died _ ->
      violation cam "degraded-arm server died before READY";
      ignore (reap h)
  | `Ready ->
      let rep =
        Loadgen.run ~audit
          (pass_cfg ~socket ~seed ~duration_ms:600 ~clients:6)
      in
      fold_pass cam rep;
      (try Unix.kill (fst h) Sys.sigterm with Unix.Unix_error _ -> ());
      (match reap h with
      | Unix.WEXITED 3 -> cam.c_degraded <- cam.c_degraded + 1
      | Unix.WEXITED 0 ->
          (* the EIO storm may start only after the traffic stopped *)
          cam.c_drains <- cam.c_drains + 1
      | st ->
          violation cam "degraded server ended oddly (%s)"
            (match st with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | _ -> "stopped")));
  final_resolve cam ~worker ~dir ~socket ~construction ~audit ~seed;
  cam.c_scenarios <- cam.c_scenarios + 1

let run_campaign ~worker ~dir ~seeds =
  let cam =
    {
      c_scenarios = 0;
      c_spawns = 0;
      c_passes = 0;
      c_sigkills = 0;
      c_drains = 0;
      c_degraded = 0;
      c_confirmed = 0;
      c_sheds = 0;
      c_reconnects = 0;
      c_violations = [];
    }
  in
  let scenario name f construction seed =
    let sdir = Filename.concat dir (Printf.sprintf "%s-%d" name seed) in
    Unix.mkdir sdir 0o755;
    f cam ~worker ~dir:sdir ~construction ~seed
  in
  List.iter
    (fun (arm, construction) ->
      for seed = 0 to seeds - 1 do
        scenario ("kill-" ^ arm) scenario_kill construction seed
      done)
    [ ("plain", Service.Plain); ("mirrored", Service.Mirrored) ];
  for seed = 0 to min 1 (seeds - 1) do
    scenario "flood" scenario_flood Service.Mirrored seed;
    scenario "degraded" scenario_degraded Service.Plain seed
  done;
  cam

let campaign_violations cam = List.rev cam.c_violations

let campaign_to_metrics reg cam =
  let c name v = Metrics.add (Metrics.counter reg name) v in
  c "e18c.campaign.scenarios" cam.c_scenarios;
  c "e18c.campaign.spawns" cam.c_spawns;
  c "e18c.campaign.passes" cam.c_passes;
  c "e18c.campaign.sigkills" cam.c_sigkills;
  c "e18c.campaign.drains" cam.c_drains;
  c "e18c.campaign.degraded" cam.c_degraded;
  c "e18c.campaign.confirmed" cam.c_confirmed;
  c "e18c.campaign.sheds" cam.c_sheds;
  c "e18c.campaign.reconnects" cam.c_reconnects;
  c "e18c.campaign.violations" (List.length cam.c_violations)

let pp_campaign ppf cam =
  Format.fprintf ppf
    "scenarios=%d spawns=%d passes=%d sigkills=%d drains=%d degraded=%d \
     confirmed=%d sheds=%d reconnects=%d violations=%d"
    cam.c_scenarios cam.c_spawns cam.c_passes cam.c_sigkills cam.c_drains
    cam.c_degraded cam.c_confirmed cam.c_sheds cam.c_reconnects
    (List.length cam.c_violations)
