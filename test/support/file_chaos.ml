(* E17: the file-backend crash harness.

   One EPOCH is one process lifetime against a store directory: open the
   file-backed machine, run hardened recovery, attach the client's
   session over the client table (one fence-free read of its entry),
   resubmit the operation the previous epoch left unanswered under its
   seq, then submit increments until the counter reaches [target]. The
   epoch narrates itself through a tiny line protocol (LAST / V0 /
   SUBMIT / ACK / DUP / DONE / DEGRADED) emitted through a callback.

   The AUDIT consumes those lines across epochs and checks exactly-once
   against the table, the one client's last applied seq:
   - every acknowledged seq is at or below the recorded last (no lost
     ack), and the last is no seq that was never submitted;
   - the counter is last + 1 at every epoch start, after every ACK and
     at the end: each seq applied once, none twice;
   - a seq is confirmed (ACKed, or answered DUP on resubmission) at most
     once.

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
module Ct = Onll_core.Client_table.Make (Cs)
module Sess = Onll_session.Make (Cs)

type outcome =
  | Done  (** reached the target *)
  | Crashed  (** killed: an injected crash in process, SIGKILL in a child *)
  | Degraded of string  (** fail-stop: fsync retry budget exhausted *)
  | Failed of string  (** a submission returned an error *)

(* {1 One epoch} *)

let run_epoch ?fplan ~emit ~dir ~replicas ~resubmit ~target () =
  let fmach = Fm.create ~backoff_ns:0 ~dir ~max_processes:1 () in
  let inj =
    Option.map (fun p -> Faults.install_file (Fm.memory fmach) p) fplan
  in
  ignore (Fm.register fmach);
  let module M = (val Fm.machine fmach) in
  let module B = Onll_stack.Make (M) (Ct) in
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
    let sess = Sess.attach ~client:0 (B.backend obj) in
    emit (Printf.sprintf "LAST %d" (Sess.next_seq sess - 1));
    emit (Printf.sprintf "V0 %d" (Sess.read sess Cs.Get));
    let submit seq =
      emit (Printf.sprintf "SUBMIT %d" seq);
      match Sess.submit ~seq sess Cs.Increment with
      | Ok (Sess.Applied v) ->
          emit (Printf.sprintf "ACK %d %d" seq v);
          None
      | Ok Sess.Duplicate ->
          emit (Printf.sprintf "DUP %d" seq);
          None
      | Error e -> Some (Format.asprintf "%a" Onll_session.pp_error e)
    in
    let rec loop = function
      | Some msg ->
          emit ("ERR " ^ msg);
          finish (Failed msg)
      | None when Sess.read sess Cs.Get < target ->
          loop (submit (Sess.next_seq sess))
      | None ->
          emit
            (Printf.sprintf "DONE %d %d" (Sess.read sess Cs.Get)
               (Sess.next_seq sess - 1));
          finish Done
    in
    loop (Option.bind resubmit submit)
  with
  | Onll_nvm.Memory.Injected_crash -> finish Crashed
  | File_memory.Degraded msg ->
      emit ("DEGRADED " ^ msg);
      finish (Degraded msg)

(* {1 The audit} *)

type audit = {
  confirmed : (int, unit) Hashtbl.t;  (* seqs acked or answered DUP, ever *)
  mutable last : int;  (* the table's last applied seq, as last read *)
  mutable submitted : int;  (* the highest seq ever submitted *)
  mutable inflight : int option;  (* submitted, not yet answered *)
  mutable carried : int option;  (* unanswered when the epoch began *)
  mutable acks : int;
  mutable adopted : int;  (* resubmissions answered DUP *)
  mutable resubmitted : int;  (* resubmissions that applied *)
  mutable degraded_epochs : int;
  mutable done_value : int option;
  mutable violations : string list;
}

let audit_create () =
  {
    confirmed = Hashtbl.create 64;
    last = -1;
    submitted = -1;
    inflight = None;
    carried = None;
    acks = 0;
    adopted = 0;
    resubmitted = 0;
    degraded_epochs = 0;
    done_value = None;
    violations = [];
  }

let violation a fmt =
  Printf.ksprintf (fun s -> a.violations <- s :: a.violations) fmt

let confirm a seq =
  if Hashtbl.mem a.confirmed seq then
    violation a "seq %d confirmed twice (duplicate)" seq
  else Hashtbl.replace a.confirmed seq ();
  if a.inflight = Some seq then a.inflight <- None

(* The counter must count each applied seq once: last + 1. *)
let check_value a what v =
  if v <> a.last + 1 then
    violation a "%s value %d but the table's last seq is %d" what v a.last

let audit_line a line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "LAST"; l ] ->
      let l = int_of_string l in
      Hashtbl.iter
        (fun seq () ->
          if seq > l then
            violation a "confirmed seq %d above the table's last %d (lost ack)"
              seq l)
        a.confirmed;
      if l > a.submitted then
        violation a "the table's last %d was never submitted" l;
      a.last <- l;
      a.carried <- a.inflight
  | [ "V0"; v ] -> check_value a "recovered" (int_of_string v)
  | [ "SUBMIT"; s ] ->
      let s = int_of_string s in
      if a.inflight <> None && a.inflight <> Some s then
        violation a "seq %d submitted while another is unanswered" s;
      a.submitted <- max a.submitted s;
      a.inflight <- Some s
  | [ "ACK"; s; v ] ->
      let s = int_of_string s in
      if a.carried = Some s then a.resubmitted <- a.resubmitted + 1;
      a.acks <- a.acks + 1;
      confirm a s;
      a.last <- max a.last s;
      check_value a "acked" (int_of_string v)
  | [ "DUP"; s ] ->
      let s = int_of_string s in
      a.adopted <- a.adopted + 1;
      if a.carried <> Some s then
        violation a "DUP for seq %d, which no epoch left unanswered" s;
      confirm a s
  | [ "DONE"; v; l ] ->
      let v = int_of_string v in
      a.done_value <- Some v;
      a.last <- int_of_string l;
      check_value a "final" v
  | "DEGRADED" :: _ -> a.degraded_epochs <- a.degraded_epochs + 1
  | "ERR" :: rest ->
      violation a "submission error: %s" (String.concat " " rest)
  | _ -> violation a "unparseable worker line: %s" line

let audit_done a ~target =
  match a.done_value with
  | None -> violation a "scenario never completed"
  | Some v ->
      if v <> target then violation a "final value %d != target %d" v target

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

let in_process ~fplan ~emit ~dir ~replicas ~resubmit ~target =
  run_epoch
    ?fplan:(with_kill_mode Faults.File_plan.Raise fplan)
    ~emit ~dir ~replicas ~resubmit ~target ()

(* The child exits 0 when done and 3 when degraded; a kill is SIGKILL. *)
let forked ~fplan ~emit ~dir ~replicas ~resubmit ~target =
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
             ~emit ~dir ~replicas ~resubmit ~target ()
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
    "adopted"; "resubmitted"; "value";
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
    runner ~fplan ~emit:(audit_line a) ~dir ~replicas ~resubmit:a.inflight
      ~target
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
      ("resubmitted", a.resubmitted);
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
          "resubmitted"; "violations";
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
           "confirmed"; "adopted"; "resubmitted"; "violations";
         ])
