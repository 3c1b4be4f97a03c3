(* E17: the file-backend crash harness.

   One EPOCH is one process lifetime against a store directory: open the
   file-backed machine, run hardened recovery, attach a durable session,
   resolve the in-doubt operation, then submit increments until the
   counter reaches [target]. The epoch narrates itself through a tiny
   line protocol (RESOLUTION / NEXT_SEQ / V0 / ACK / APPLIED / DONE /
   DEGRADED) emitted through a callback.

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

   One SCENARIO is one loop of epochs over one store directory
   ({!scenario}). What differs is how an epoch runs, the scenario's
   RUNNER: {!in_process} runs it here with [Raise] kills (the injected
   crash is caught, the store closed unfsynced, and the next epoch
   reopens the directory — deterministic, so the bench gate replays
   it); {!forked} runs it in a forked child with [Sigkill] kills, whose
   lines come back over a pipe (each flushed, so everything acked
   before the kill reaches the audit) and whose wait status becomes the
   epoch's outcome — the kill -9 campaign. *)

module Faults = Onll_faults.Faults
module Fm = Onll_machine.File_machine
module File_memory = Onll_nvm.File_memory
module Cs = Onll_specs.Counter

type outcome =
  | Done  (** reached the target *)
  | Crashed  (** killed: an injected crash in process, SIGKILL in a child *)
  | Degraded of string  (** fail-stop: fsync retry budget exhausted *)
  | Failed of string  (** a submission returned an error *)

(* {1 One epoch} *)

let run_epoch ?fplan ~emit ~dir ~replicas ~target () =
  let fmach = Fm.create ~backoff_ns:0 ~dir ~max_processes:1 () in
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
        { Onll_core.Onll.Config.default with log_capacity = 1 lsl 14 }
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
        finish Done
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
   the fsync point, round-robin over the seed. The runner sets the kill
   mode. *)

let kill_plan ~seed ~epoch =
  {
    Faults.File_plan.none with
    base = { Onll_faults.Faults.Plan.none with seed };
    kill_at_fence = 2 + (2 * epoch) + (seed mod 3);
    kill_after_sectors = [| 0; 1; 3; -1 |].((seed + epoch) mod 4);
  }

(* {1 Epoch runners} *)

let with_kill_mode kill_mode =
  Option.map (fun p -> { p with Faults.File_plan.kill_mode })

let in_process ~fplan ~emit ~dir ~replicas ~target =
  run_epoch
    ?fplan:(with_kill_mode Faults.File_plan.Raise fplan)
    ~emit ~dir ~replicas ~target ()

(* The child exits 0 when done and 3 when degraded; a kill is SIGKILL. *)
let forked ~fplan ~emit ~dir ~replicas ~target =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let emit line =
        output_string oc line;
        output_char oc '\n';
        flush oc
      in
      Unix._exit
        (match
           run_epoch
             ?fplan:(with_kill_mode Faults.File_plan.Sigkill fplan)
             ~emit ~dir ~replicas ~target ()
         with
        | Done -> 0
        | Degraded _ -> 3
        | Crashed | Failed _ -> 4
        | exception e ->
            prerr_endline (Printexc.to_string e);
            2)
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      (try
         while true do
           emit (input_line ic)
         done
       with End_of_file -> ());
      close_in ic;
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> Done
      | Unix.WSIGNALED s when s = Sys.sigkill -> Crashed
      | Unix.WEXITED 3 -> Degraded "the child exited 3"
      | st -> Failed ("the child ended with " ^ Campaign.status_to_string st))

(* {1 The epoch loop} *)

(* A scenario's counts, in table order: [acks_before] is what was
   confirmed before a clean epoch, [value] the final counter value. *)
let counts =
  [
    "epochs"; "kills"; "degraded"; "acks"; "acks_before"; "confirmed";
    "adopted"; "reacked"; "value";
  ]

(* Epochs run under [plan epoch] until one reaches [target]; a killed
   epoch is followed by the next. A degraded epoch — expected only when
   [degrades] — or a failed one ends the faulted run, as does running out
   of epochs, and one clean epoch must then finish: to [target], or past
   what a degraded store confirmed by two. *)
let scenario ~runner ?(degrades = false) ~dir ~replicas ~target plan =
  let t = Campaign.tally () in
  let a = audit_create () in
  let epoch ~fplan ~target =
    Campaign.bump t "epochs";
    runner ~fplan ~emit:(audit_line a) ~dir ~replicas ~target
  in
  let max_epochs = (3 * target) + 8 in
  let rec faulted e =
    e < max_epochs
    &&
    match epoch ~fplan:(Some (plan e)) ~target with
    | Done ->
        if degrades then violation a "completed despite endless fsync EIO";
        true
    | Crashed ->
        Campaign.bump t "kills";
        faulted (e + 1)
    | Degraded m ->
        Campaign.bump t "degraded";
        if not degrades then violation a "unexpected degradation: %s" m;
        false
    | Failed m ->
        violation a "unexpected failure: %s" m;
        false
  in
  let target =
    try
      if faulted 0 then target
      else begin
        let confirmed = Hashtbl.length a.confirmed in
        Campaign.bump t "acks_before" ~by:confirmed;
        let target = if degrades then confirmed + 2 else target in
        if epoch ~fplan:None ~target <> Done then
          violation a "the clean epoch did not complete";
        target
      end
    with e ->
      violation a "scenario raised %s" (Printexc.to_string e);
      target
  in
  audit_done a ~target;
  List.iter
    (fun (k, by) -> Campaign.bump t k ~by)
    [
      ("acks", a.acks);
      ("confirmed", Hashtbl.length a.confirmed);
      ("adopted", a.adopted);
      ("reacked", a.reacked);
      ("value", Option.value ~default:0 a.done_value);
    ];
  List.iter (Campaign.fail t "%s") (List.rev a.violations);
  t

(* {1 Arms} *)

(* Seeds [0, seeds) of the seeded kill schedule, each scenario in its own
   directory under [dir]. *)
let restart_arm ~runner ~dir ~name ~replicas ~target ~seeds =
  Campaign.tally_arm ~name ~seeds ~keys:counts (fun seed ->
      let seed = seed - 1 in
      scenario ~runner
        ~dir:(Temp_dir.sub dir (Printf.sprintf "%s-%d" name seed))
        ~replicas ~target
        (fun epoch -> kill_plan ~seed ~epoch))

type fault_arm = {
  name : string;
  plan : Faults.File_plan.t;
  target : int;
  degrades : bool;  (** the expected outcome: sticky degradation *)
  gated : string list;  (** the row's keys in the bench gate *)
}

(* The media-fault arms, one epoch each (two when it degrades):
   - EIO within the retry budget: the fence re-writes and lands; every
     submission acks; nothing degrades;
   - EIO past the budget, with fsyncgate page loss on every attempt: the
     fence never succeeds, the store degrades sticky, the in-flight
     update is never acked — and the clean epoch still sees every update
     that WAS acked before the first EIO;
   - short writes: torn sectors at pwrite granularity, healed by the
     bounded re-write retry;
   - disk full: one injected ENOSPC fails the attempt, the retry lands.
   Deterministic in process (backoff 0, fixed injection sites). *)
let fault_arms =
  let open Faults.File_plan in
  [
    {
      name = "eio.retry";
      plan =
        {
          none with
          fsync_eio_from = 2;
          fsync_eio_count = 2;
          drop_pages_on_eio = true;
        };
      target = 6;
      degrades = false;
      gated = [ "acks"; "violations" ];
    };
    {
      name = "eio.sticky";
      plan =
        {
          none with
          fsync_eio_from = 4;
          fsync_eio_count = 10_000;
          drop_pages_on_eio = true;
        };
      target = 40;
      degrades = true;
      gated = [ "degraded"; "acks_before"; "violations" ];
    };
    {
      name = "shortw";
      plan =
        {
          none with
          base = { Onll_faults.Faults.Plan.none with seed = 11 };
          short_write_prob = 0.2;
        };
      target = 8;
      degrades = false;
      gated = [ "acks"; "violations" ];
    };
    {
      name = "enospc";
      plan = { none with enospc_at_write = 3 };
      target = 5;
      degrades = false;
      gated = [ "acks"; "violations" ];
    };
  ]

let fault_row ~runner ~dir ~name ~replicas f =
  Campaign.tally_arm ~name ~seeds:1 ~keys:counts (fun _ ->
      scenario ~runner ~degrades:f.degrades ~dir:(Temp_dir.sub dir name)
        ~replicas ~target:f.target (fun _ -> f.plan))

(* {1 The deterministic in-process slices (bench gate + tests)} *)

let gate_slices reg =
  Temp_dir.with_fresh ~prefix:"onll-e17" @@ fun dir ->
  let emit keys (row : Campaign.row) =
    List.iter (Printf.eprintf "e17 violation: %s\n%!") row.violations;
    ignore (Campaign.to_metrics ~reg ~keys ~prefix:("e17." ^ row.name) row)
  in
  List.iter
    (fun (name, replicas) ->
      emit
        [
          "runs"; "epochs"; "kills"; "acks"; "confirmed"; "adopted";
          "reacked"; "violations";
        ]
        (restart_arm ~runner:in_process ~dir ~name ~replicas ~target:6
           ~seeds:3))
    [ ("restart.plain", 1); ("restart.mirrored", 2) ];
  List.iter
    (fun f ->
      emit f.gated
        (fault_row ~runner:in_process ~dir ~name:f.name ~replicas:1 f))
    fault_arms

(* {1 The kill -9 campaign}

   The same arms with every epoch in a forked child: the seeded kill
   schedules and each media-fault arm, over plain and mirrored stores. *)

let run_campaign ~dir ~seeds ~target =
  List.concat_map
    (fun (store, replicas) ->
      restart_arm ~runner:forked ~dir ~name:("restart." ^ store) ~replicas
        ~target ~seeds
      :: List.map
           (fun f ->
             fault_row ~runner:forked ~dir ~name:(f.name ^ "." ^ store)
               ~replicas f)
           fault_arms)
    [ ("plain", 1); ("mirrored", 2) ]

let print_rows =
  Campaign.print
    ~title:
      "E17 — kill -9 campaign on file-backed stores (every epoch a forked \
       child; exactly-once across SIGKILLs and fsync faults; violations \
       must be 0)"
    ~header:"arm"
    ~columns:
      (List.map
         (fun k -> (k, k))
         [
           "runs"; "crashed"; "epochs"; "kills"; "degraded"; "acks";
           "confirmed"; "adopted"; "reacked"; "violations";
         ])
