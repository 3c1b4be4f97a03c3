(* E17: the file-backend crash harness.

   One EPOCH is one process lifetime against a store directory: open the
   file-backed machine, run hardened recovery, attach a durable session,
   resolve the in-doubt operation, then submit increments until the
   counter reaches [target]. The epoch narrates itself through a tiny
   line protocol (RESOLUTION / NEXT_SEQ / V0 / ACK / APPLIED / DONE /
   DEGRADED) emitted through a callback — the subprocess worker prints
   and flushes each line (so everything acked before a SIGKILL reaches
   the supervisor), while the in-process gate slice just collects them.

   The AUDIT consumes those lines across epochs and checks the
   exactly-once / no-lost-ack invariants:
   - a sequence number is confirmed (ACKed, adopted or re-acked) at most
     once — a second confirmation is a duplicate;
   - the recovered value V0 never exceeds NEXT_SEQ (more applied
     increments than intents ever created = a duplicated apply);
   - V0 never falls below the number of confirmed seqs, nor below the
     highest acked value (either would be an acked update the media
     lost);
   - the final epoch's APPLIED scan (was_linearized over every seq) must
     contain every confirmed seq and agree with the final value.

   Crashes come in two flavours, selected by the fault plan's kill mode:
   [Sigkill] for the out-of-process campaign (the supervisor spawns
   `onll store worker` and expects WSIGNALED), [Raise] for the
   deterministic in-process slice the bench gate replays (the injected
   crash is caught here, the store closed unfsynced, and the next epoch
   reopens the directory). *)

module Faults = Onll_faults.Faults
module Fm = Onll_machine.File_machine
module File_memory = Onll_nvm.File_memory
module Cs = Onll_specs.Counter
module Metrics = Onll_obs.Metrics

type outcome =
  | Done of int  (** reached target; final value *)
  | Crashed  (** in-process injected crash (Raise mode) *)
  | Degraded of string  (** fail-stop: fsync retry budget exhausted *)
  | Failed of string  (** a submission returned an error *)

(* {1 One epoch} *)

let run_epoch ?(log_capacity = 1 lsl 14) ?(retry_budget = 8) ?(backoff_ns = 0)
    ?(sector_size = 512) ?fplan ~emit ~dir ~replicas ~target () =
  let fmach =
    Fm.create ~sector_size ~retry_budget ~backoff_ns ~dir ~max_processes:1 ()
  in
  let inj =
    Option.map (fun p -> Faults.install_file (Fm.memory fmach) p) fplan
  in
  ignore (Fm.register fmach);
  let module M = (val Fm.machine fmach) in
  let module B = Onll_stack.Make (M) (Cs) in
  let module Sess = Onll_session.Make (M) (Cs) in
  let finish outcome =
    Option.iter Faults.remove_file inj;
    Fm.close fmach;
    outcome
  in
  try
    let obj =
      B.build { Onll_stack.plain with replicas }
        { Onll_core.Onll.Config.default with log_capacity }
    in
    ignore (obj.B.recover_report ());
    let backend = B.backend obj in
    let config = { Onll_session.default_config with replicas } in
    let sess = Sess.attach ~config ~client:0 backend in
    (match Sess.recover sess with
    | Sess.No_pending -> emit "RESOLUTION none"
    | Sess.Was_applied id ->
        emit (Printf.sprintf "RESOLUTION adopted %d" id.Onll_core.Onll.id_seq)
    | Sess.Reinvoked (_old, fresh, v) ->
        emit
          (Printf.sprintf "RESOLUTION reacked %d %d"
             fresh.Onll_core.Onll.id_seq v)
    | Sess.Refused id ->
        emit (Printf.sprintf "RESOLUTION refused %d" id.Onll_core.Onll.id_seq)
    | Sess.Unresolved (id, _) ->
        emit
          (Printf.sprintf "RESOLUTION unresolved %d"
             id.Onll_core.Onll.id_seq));
    emit (Printf.sprintf "NEXT_SEQ %d" (Sess.next_seq sess));
    let v0 = Sess.read sess Cs.Get in
    emit (Printf.sprintf "V0 %d" v0);
    let v = ref v0 in
    let failed = ref None in
    while !failed = None && !v < target do
      let seq = Sess.next_seq sess in
      match Sess.submit sess Cs.Increment with
      | Ok v' ->
          emit (Printf.sprintf "ACK %d %d" seq v');
          v := v'
      | Error e ->
          failed := Some (Format.asprintf "%a" Onll_session.pp_error e)
    done;
    match !failed with
    | Some msg ->
        emit ("ERR " ^ msg);
        finish (Failed msg)
    | None ->
        let applied =
          List.filter
            (fun s ->
              obj.B.was_linearized Cs.Increment
                { Onll_core.Onll.id_proc = 0; id_seq = s })
            (List.init (Sess.next_seq sess) Fun.id)
        in
        emit
          (Printf.sprintf "APPLIED %d%s" (List.length applied)
             (String.concat ""
                (List.map (fun s -> " " ^ string_of_int s) applied)));
        let vf = Sess.read sess Cs.Get in
        emit (Printf.sprintf "DONE %d" vf);
        finish (Done vf)
  with
  | Onll_nvm.Memory.Injected_crash -> finish Crashed
  | File_memory.Degraded msg ->
      emit ("DEGRADED " ^ msg);
      finish (Degraded msg)

(* {1 The audit} *)

type audit = {
  confirmed : (int, unit) Hashtbl.t;  (* seqs acked/adopted, ever *)
  mutable max_acked : int;  (* highest counter value ever acked *)
  mutable next_seq_seen : int;
  mutable last_applied : int;
  mutable acks : int;
  mutable adopted : int;
  mutable reacked : int;
  mutable degraded_epochs : int;
  mutable done_value : int option;
  mutable violations : string list;
}

let audit_create () =
  {
    confirmed = Hashtbl.create 64;
    max_acked = 0;
    next_seq_seen = 0;
    last_applied = 0;
    acks = 0;
    adopted = 0;
    reacked = 0;
    degraded_epochs = 0;
    done_value = None;
    violations = [];
  }

let violation a fmt =
  Printf.ksprintf (fun s -> a.violations <- s :: a.violations) fmt

let confirm a seq =
  if Hashtbl.mem a.confirmed seq then
    violation a "seq %d confirmed twice (duplicate)" seq
  else Hashtbl.replace a.confirmed seq ()

let audit_line a line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "RESOLUTION"; "none" ] -> ()
  | [ "RESOLUTION"; "adopted"; s ] ->
      (* Was_applied is idempotent confirmation, not a second apply: the
         op may have been acked already, with the ack record not yet
         durable when the crash hit. *)
      a.adopted <- a.adopted + 1;
      Hashtbl.replace a.confirmed (int_of_string s) ()
  | [ "RESOLUTION"; "reacked"; s; v ] ->
      a.reacked <- a.reacked + 1;
      confirm a (int_of_string s);
      let v = int_of_string v in
      if v <= a.max_acked then
        violation a "reacked value %d not above %d" v a.max_acked
      else a.max_acked <- v
  | [ "RESOLUTION"; "refused"; _ ] -> ()
  | [ "RESOLUTION"; "unresolved"; s ] ->
      violation a "seq %s left unresolved by recovery" s
  | [ "NEXT_SEQ"; n ] -> a.next_seq_seen <- int_of_string n
  | [ "V0"; v ] ->
      let v = int_of_string v in
      if v > a.next_seq_seen then
        violation a "value %d exceeds %d intents ever created (duplicate)" v
          a.next_seq_seen;
      if v < Hashtbl.length a.confirmed then
        violation a "value %d below %d confirmed updates (lost ack)" v
          (Hashtbl.length a.confirmed);
      if v < a.max_acked then
        violation a "value %d below highest acked value %d (lost data)" v
          a.max_acked
  | [ "ACK"; s; v ] ->
      a.acks <- a.acks + 1;
      confirm a (int_of_string s);
      let v = int_of_string v in
      if v <= a.max_acked then
        violation a "acked value %d not above %d" v a.max_acked
      else a.max_acked <- v
  | "APPLIED" :: n :: seqs ->
      let applied = List.map int_of_string seqs in
      a.last_applied <- int_of_string n;
      Hashtbl.iter
        (fun seq () ->
          if not (List.mem seq applied) then
            violation a "confirmed seq %d not applied (lost ack)" seq)
        a.confirmed
  | [ "DONE"; v ] ->
      let v = int_of_string v in
      a.done_value <- Some v;
      if v <> a.last_applied then
        violation a "final value %d != %d applied operations" v
          a.last_applied
  | "DEGRADED" :: _ -> a.degraded_epochs <- a.degraded_epochs + 1
  | "ERR" :: rest ->
      violation a "submission error: %s" (String.concat " " rest)
  | _ -> violation a "unparseable worker line: %s" line

let audit_done a ~target =
  match a.done_value with
  | None -> violation a "scenario never completed"
  | Some v -> if v <> target then violation a "final value %d != target %d" v target

(* {1 Seeded kill schedules}

   The n-th epoch of a scenario is killed at a fence index that grows
   with n, so every epoch durably out-runs the previous one and the
   scenario converges; the cut lands before any write, mid-write, or at
   the fsync point, round-robin over the seed. *)

let kill_plan ~mode ~seed ~epoch =
  {
    Faults.File_plan.none with
    base = { Onll_faults.Faults.Plan.none with seed };
    kill_at_fence = 2 + (2 * epoch) + (seed mod 3);
    kill_after_sectors = [| 0; 1; 3; -1 |].((seed + epoch) mod 4);
    kill_mode = mode;
  }

(* {1 The deterministic in-process slice (bench gate + tests)}

   Kill mode [Raise]: the injected crash is an exception caught by
   [run_epoch], the store is closed without fsync and the next epoch
   reopens the same directory — fully deterministic, no subprocesses, so
   the counters below are gate-golden material. *)

type slice_totals = {
  mutable t_scenarios : int;
  mutable t_epochs : int;
  mutable t_kills : int;
  mutable t_acks : int;
  mutable t_confirmed : int;
  mutable t_adopted : int;
  mutable t_reacked : int;
  mutable t_violations : int;
}

let fresh_dir () = Temp_dir.fresh ~prefix:"onll-e17"

let run_restart_scenario ~replicas ~target ~seed totals =
  let dir = fresh_dir () in
  let a = audit_create () in
  let max_epochs = (3 * target) + 8 in
  (try
     let finished = ref false in
     let epoch = ref 0 in
     while (not !finished) && !epoch < max_epochs do
       let fplan =
         kill_plan ~mode:Faults.File_plan.Raise ~seed ~epoch:!epoch
       in
       let outcome =
         run_epoch ~fplan ~emit:(audit_line a) ~dir ~replicas ~target ()
       in
       totals.t_epochs <- totals.t_epochs + 1;
       (match outcome with
       | Done _ -> finished := true
       | Crashed -> totals.t_kills <- totals.t_kills + 1
       | Degraded m -> violation a "unexpected degradation: %s" m
       | Failed m -> violation a "unexpected failure: %s" m);
       incr epoch
     done
   with e ->
     violation a "scenario raised %s" (Printexc.to_string e));
  audit_done a ~target;
  totals.t_scenarios <- totals.t_scenarios + 1;
  totals.t_acks <- totals.t_acks + a.acks;
  totals.t_confirmed <- totals.t_confirmed + Hashtbl.length a.confirmed;
  totals.t_adopted <- totals.t_adopted + a.adopted;
  totals.t_reacked <- totals.t_reacked + a.reacked;
  totals.t_violations <- totals.t_violations + List.length a.violations;
  List.iter (Printf.eprintf "e17 violation: %s\n%!") (List.rev a.violations);
  Temp_dir.rm_rf dir

let slice_to_metrics reg ~prefix t =
  let c name v = Metrics.add (Metrics.counter reg (prefix ^ "." ^ name)) v in
  c "scenarios" t.t_scenarios;
  c "runs" t.t_epochs;
  c "kills" t.t_kills;
  c "acks" t.t_acks;
  c "confirmed" t.t_confirmed;
  c "adopted" t.t_adopted;
  c "reacked" t.t_reacked;
  c "violations" t.t_violations

(* fsync-failure slices: bounded-retry success, then the sticky
   fail-stop. Both deterministic (backoff 0, fixed injection sites). *)
let run_eio_slices reg =
  let c name v = Metrics.add (Metrics.counter reg name) v in
  (* EIO within the retry budget: the fence re-writes and lands; every
     submission acks; nothing degrades. *)
  let dir = fresh_dir () in
  let a = audit_create () in
  let fplan =
    {
      Faults.File_plan.none with
      fsync_eio_from = 2;
      fsync_eio_count = 2;
      drop_pages_on_eio = true;
    }
  in
  let target = 6 in
  (match run_epoch ~fplan ~emit:(audit_line a) ~dir ~replicas:1 ~target () with
  | Done v -> if v <> target then violation a "retry arm: %d != target" v
  | Crashed -> violation a "retry arm crashed"
  | Degraded m -> violation a "retry arm degraded within budget: %s" m
  | Failed m -> violation a "retry arm failed: %s" m);
  audit_done a ~target;
  c "e17.eio.retry.acks" a.acks;
  c "e17.eio.retry.violations" (List.length a.violations);
  List.iter (Printf.eprintf "e17 violation: %s\n%!") (List.rev a.violations);
  Temp_dir.rm_rf dir;
  (* EIO past the budget: fsyncgate page loss on every attempt. The fence
     must never succeed, the store must degrade sticky, the epoch must not
     ack the in-flight update — and a clean restart must still see every
     update that WAS acked before the first EIO. *)
  let dir = fresh_dir () in
  let a = audit_create () in
  let fplan =
    {
      Faults.File_plan.none with
      fsync_eio_from = 4;
      fsync_eio_count = 10_000;
      drop_pages_on_eio = true;
    }
  in
  let degraded_seen = ref 0 in
  (match run_epoch ~fplan ~emit:(audit_line a) ~dir ~replicas:1 ~target:40 ()
   with
  | Degraded _ -> incr degraded_seen
  | Done _ -> violation a "sticky arm completed despite unbounded EIO"
  | Crashed -> violation a "sticky arm crashed"
  | Failed m -> violation a "sticky arm failed oddly: %s" m);
  let acked_before = a.acks + a.reacked in
  (* clean restart over the same directory: recovery + the audit's V0
     checks prove no acked update was lost and the failed fence's update
     was never acked *)
  let target = acked_before + 2 in
  (match run_epoch ~emit:(audit_line a) ~dir ~replicas:1 ~target () with
  | Done _ -> ()
  | Crashed | Degraded _ | Failed _ ->
      violation a "sticky arm: clean restart did not complete");
  audit_done a ~target;
  c "e17.eio.sticky.degraded" !degraded_seen;
  c "e17.eio.sticky.acks_before" acked_before;
  c "e17.eio.sticky.violations" (List.length a.violations);
  List.iter (Printf.eprintf "e17 violation: %s\n%!") (List.rev a.violations);
  Temp_dir.rm_rf dir;
  (* short writes: torn sectors at pwrite granularity, healed by the
     bounded re-write retry — all acks land, zero violations *)
  let dir = fresh_dir () in
  let a = audit_create () in
  let fplan =
    {
      Faults.File_plan.none with
      base = { Onll_faults.Faults.Plan.none with seed = 11 };
      short_write_prob = 0.2;
    }
  in
  let target = 8 in
  (match run_epoch ~fplan ~emit:(audit_line a) ~dir ~replicas:1 ~target () with
  | Done _ -> ()
  | Crashed -> violation a "short-write arm crashed"
  | Degraded m -> violation a "short-write arm degraded: %s" m
  | Failed m -> violation a "short-write arm failed: %s" m);
  audit_done a ~target;
  c "e17.shortw.acks" a.acks;
  c "e17.shortw.violations" (List.length a.violations);
  List.iter (Printf.eprintf "e17 violation: %s\n%!") (List.rev a.violations);
  Temp_dir.rm_rf dir;
  (* disk-full: one injected ENOSPC fails the attempt, the retry lands *)
  let dir = fresh_dir () in
  let a = audit_create () in
  let fplan =
    { Faults.File_plan.none with enospc_at_write = 3 }
  in
  let target = 5 in
  (match run_epoch ~fplan ~emit:(audit_line a) ~dir ~replicas:1 ~target () with
  | Done _ -> ()
  | Crashed -> violation a "enospc arm crashed"
  | Degraded m -> violation a "enospc arm degraded: %s" m
  | Failed m -> violation a "enospc arm failed: %s" m);
  audit_done a ~target;
  c "e17.enospc.acks" a.acks;
  c "e17.enospc.violations" (List.length a.violations);
  List.iter (Printf.eprintf "e17 violation: %s\n%!") (List.rev a.violations);
  Temp_dir.rm_rf dir

let gate_slices reg =
  let plain =
    {
      t_scenarios = 0;
      t_epochs = 0;
      t_kills = 0;
      t_acks = 0;
      t_confirmed = 0;
      t_adopted = 0;
      t_reacked = 0;
      t_violations = 0;
    }
  in
  for seed = 0 to 2 do
    run_restart_scenario ~replicas:1 ~target:6 ~seed plain
  done;
  slice_to_metrics reg ~prefix:"e17.restart.plain" plain;
  let mirrored =
    {
      t_scenarios = 0;
      t_epochs = 0;
      t_kills = 0;
      t_acks = 0;
      t_confirmed = 0;
      t_adopted = 0;
      t_reacked = 0;
      t_violations = 0;
    }
  in
  for seed = 0 to 2 do
    run_restart_scenario ~replicas:2 ~target:6 ~seed mirrored
  done;
  slice_to_metrics reg ~prefix:"e17.restart.mirrored" mirrored;
  run_eio_slices reg

(* {1 The out-of-process campaign (kill -9)}

   The real thing: spawn `onll store worker` subprocesses, SIGKILL them
   at seeded fence points via the fault layer, rerun recovery in the
   next spawn, audit the same line protocol off the worker's stdout. *)

type campaign = {
  mutable c_scenarios : int;
  mutable c_runs : int;
  mutable c_sigkills : int;
  mutable c_degraded : int;
  mutable c_acks : int;
  mutable c_confirmed : int;
  mutable c_violations : string list;
}

let worker_args ~dir ~replicas ~target (fplan : Faults.File_plan.t option) =
  (* single-token --flag=value form: a bare "-1" operand would parse as
     an option *)
  let base =
    [
      "store"; "worker"; "--dir=" ^ dir;
      Printf.sprintf "--target=%d" target;
      Printf.sprintf "--replicas=%d" replicas;
    ]
  in
  match fplan with
  | None -> base
  | Some p ->
      let open Faults.File_plan in
      base
      @ (if p.kill_at_fence > 0 then
           [
             Printf.sprintf "--kill-at-fence=%d" p.kill_at_fence;
             Printf.sprintf "--kill-after-sectors=%d" p.kill_after_sectors;
           ]
         else [])
      @ (if p.fsync_eio_from > 0 then
           [
             Printf.sprintf "--fsync-eio-from=%d" p.fsync_eio_from;
             Printf.sprintf "--fsync-eio-count=%d" p.fsync_eio_count;
           ]
         else [])
      @ (if p.short_write_prob > 0. then
           [ Printf.sprintf "--short-write-prob=%f" p.short_write_prob ]
         else [])
      @
      if p.base.Onll_faults.Faults.Plan.seed <> 0 then
        [ Printf.sprintf "--seed=%d" p.base.Onll_faults.Faults.Plan.seed ]
      else []

let spawn_worker ~worker args =
  let r, w = Unix.pipe () in
  let pid =
    Unix.create_process worker
      (Array.of_list (worker :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (List.rev !lines, status)

let campaign_scenario cam ~worker ~dir ~replicas ~target ~seed =
  let a = audit_create () in
  let max_epochs = (3 * target) + 8 in
  let finished = ref false in
  let epoch = ref 0 in
  while (not !finished) && !epoch < max_epochs do
    let fplan =
      kill_plan ~mode:Faults.File_plan.Sigkill ~seed ~epoch:!epoch
    in
    let lines, status =
      spawn_worker ~worker (worker_args ~dir ~replicas ~target (Some fplan))
    in
    cam.c_runs <- cam.c_runs + 1;
    List.iter (audit_line a) lines;
    (match status with
    | Unix.WSIGNALED s when s = Sys.sigkill ->
        cam.c_sigkills <- cam.c_sigkills + 1
    | Unix.WEXITED 0 -> finished := true
    | Unix.WEXITED n -> violation a "worker exited %d" n
    | Unix.WSIGNALED s -> violation a "worker died on signal %d" s
    | Unix.WSTOPPED _ -> violation a "worker stopped");
    incr epoch
  done;
  if not !finished then begin
    (* the armed kill never let it finish in time; one clean run must *)
    let lines, status =
      spawn_worker ~worker (worker_args ~dir ~replicas ~target None)
    in
    cam.c_runs <- cam.c_runs + 1;
    List.iter (audit_line a) lines;
    match status with
    | Unix.WEXITED 0 -> ()
    | _ -> violation a "clean final worker did not complete"
  end;
  audit_done a ~target;
  cam.c_scenarios <- cam.c_scenarios + 1;
  cam.c_acks <- cam.c_acks + a.acks;
  cam.c_confirmed <- cam.c_confirmed + Hashtbl.length a.confirmed;
  cam.c_violations <- List.rev_append a.violations cam.c_violations

let campaign_eio cam ~worker ~dir ~replicas ~target =
  let a = audit_create () in
  (* sticky fail-stop under endless EIO: worker must exit 3 (degraded) *)
  let sticky =
    {
      Faults.File_plan.none with
      fsync_eio_from = 4;
      fsync_eio_count = 10_000;
    }
  in
  let lines, status =
    spawn_worker ~worker (worker_args ~dir ~replicas ~target (Some sticky))
  in
  cam.c_runs <- cam.c_runs + 1;
  List.iter (audit_line a) lines;
  (match status with
  | Unix.WEXITED 3 -> cam.c_degraded <- cam.c_degraded + 1
  | Unix.WEXITED 0 -> violation a "eio worker completed despite endless EIO"
  | _ -> violation a "eio worker died unexpectedly");
  (* clean rerun: everything acked before the EIO storm must be there,
     the update whose fence failed must not *)
  let target = Hashtbl.length a.confirmed + 2 in
  let lines, status =
    spawn_worker ~worker (worker_args ~dir ~replicas ~target None)
  in
  cam.c_runs <- cam.c_runs + 1;
  List.iter (audit_line a) lines;
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> violation a "clean rerun after EIO did not complete");
  audit_done a ~target;
  cam.c_scenarios <- cam.c_scenarios + 1;
  cam.c_acks <- cam.c_acks + a.acks;
  cam.c_confirmed <- cam.c_confirmed + Hashtbl.length a.confirmed;
  cam.c_violations <- List.rev_append a.violations cam.c_violations

let run_campaign ~worker ~dir ~seeds ~target =
  let cam =
    {
      c_scenarios = 0;
      c_runs = 0;
      c_sigkills = 0;
      c_degraded = 0;
      c_acks = 0;
      c_confirmed = 0;
      c_violations = [];
    }
  in
  List.iter
    (fun (arm, replicas) ->
      for seed = 0 to seeds - 1 do
        let sdir = Filename.concat dir (Printf.sprintf "%s-%d" arm seed) in
        Unix.mkdir sdir 0o755;
        campaign_scenario cam ~worker ~dir:sdir ~replicas ~target ~seed
      done)
    [ ("plain", 1); ("mirrored", 2) ];
  List.iter
    (fun (arm, replicas) ->
      let sdir = Filename.concat dir ("eio-" ^ arm) in
      Unix.mkdir sdir 0o755;
      campaign_eio cam ~worker ~dir:sdir ~replicas ~target:30)
    [ ("plain", 1); ("mirrored", 2) ];
  cam

let campaign_to_metrics reg cam =
  let c name v = Metrics.add (Metrics.counter reg name) v in
  c "e17c.campaign.scenarios" cam.c_scenarios;
  c "e17c.campaign.runs" cam.c_runs;
  c "e17c.campaign.sigkills" cam.c_sigkills;
  c "e17c.campaign.degraded" cam.c_degraded;
  c "e17c.campaign.acks" cam.c_acks;
  c "e17c.campaign.confirmed" cam.c_confirmed;
  c "e17c.campaign.violations" (List.length cam.c_violations)

let pp_campaign ppf cam =
  Format.fprintf ppf
    "scenarios=%d runs=%d sigkills=%d degraded=%d acks=%d confirmed=%d \
     violations=%d"
    cam.c_scenarios cam.c_runs cam.c_sigkills cam.c_degraded cam.c_acks
    cam.c_confirmed
    (List.length cam.c_violations)

let campaign_violations cam = cam.c_violations
