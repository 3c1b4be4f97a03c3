(* Exactly-once submission across crashes, read from the object's state.

   One client drives an exactly-once session over a counter wrapped in a
   client table: the object's state holds, beside the counter, the
   client's last applied sequence number. Each submission is one update
   under one (client, seq), and costs the object's one persistent fence.
   After a crash the client re-attaches (one fence-free read of its
   table entry) and resubmits its unacknowledged operation under the seq
   it used; the table decides whether it applies.

   Crash 1 lands after the last update's fence, before the client saw
   its acknowledgement: the table shows the operation applied, and its
   resubmission answers Duplicate (an at-least-once client retrying here
   would count it twice). Crash 2 cuts a submission that a flush storm
   kept from persisting: the table shows it absent, and its resubmission
   applies it once. The final value is checked against exactly-once
   counting.

   Run with: dune exec examples/exactly_once.exe *)

open Onll_machine
module Cs = Onll_specs.Counter
module Ct = Onll_core.Client_table.Make (Cs)
module Sess = Onll_session.Make (Cs)

let () =
  let updates = 4 in
  let sim = Sim.create ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Ct) in
  let obj = B.build Onll_stack.plain Onll_core.Onll.Config.default in
  let run body =
    match Sim.run sim Onll_sched.Sched.Strategy.round_robin [| body |] with
    | Onll_sched.Sched.World.Completed -> ()
    | _ -> failwith "the simulated client did not complete"
  in
  let failed = ref false in
  let expect what ok =
    if not ok then begin
      Printf.printf "  UNEXPECTED: %s\n" what;
      failed := true
    end
  in
  let submit ?seq s =
    let seq = Option.value seq ~default:(Sess.next_seq s) in
    let r = Sess.submit ~seq s Cs.Increment in
    (match r with
    | Ok (Sess.Applied v) ->
        Printf.printf "  submit seq %d -> applied, counter = %d\n" seq v
    | Ok Sess.Duplicate ->
        Printf.printf "  submit seq %d -> duplicate, not applied again\n" seq
    | Error e ->
        Format.printf "  submit seq %d -> %a@." seq Onll_session.pp_error e);
    r
  in
  (* After a restart the client re-attaches: its cursor is one past the
     last seq the recovered table recorded. *)
  let reattach () =
    ignore (obj.B.recover_report ());
    let s = Sess.attach ~client:0 (B.backend obj) in
    Printf.printf "  attach -> the table's next seq is %d\n" (Sess.next_seq s);
    s
  in
  let s = Sess.attach ~client:0 (B.backend obj) in
  Printf.printf
    "era 1: %d increments through the session (each one update, one fence)\n"
    updates;
  let fences = M.persistent_fences () in
  run (fun _ ->
      for _ = 1 to updates do
        expect "an applied submission" (Result.is_ok (submit s))
      done);
  Printf.printf "  persistent fences: %d\n" (M.persistent_fences () - fences);
  let unacked = updates - 1 in
  Printf.printf
    "\ncrash 1: power loss after seq %d's fence, before the client saw its \
     ack\n"
    unacked;
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Persist_all;
  let s = reattach () in
  expect "the table shows the unacked op applied"
    (Sess.next_seq s = unacked + 1);
  run (fun _ ->
      expect "its resubmission answers Duplicate"
        (submit ~seq:unacked s = Ok Sess.Duplicate);
      Printf.printf "  counter = %d (an at-least-once retry would make it %d)\n"
        (Sess.read s Cs.Get) (updates + 1));
  let storm =
    Onll_faults.Faults.install mem
      {
        Onll_faults.Faults.Plan.none with
        seed = 1;
        flush_fail_prob = 1.0;
        max_consecutive_transients = 1_000_000;
      }
  in
  Printf.printf "\nera 2: a transient flush storm on every region\n";
  let lost = Sess.next_seq s in
  run (fun _ ->
      expect "the storm leaves the op in doubt"
        (submit s = Error Onll_session.In_doubt));
  Onll_faults.Faults.remove storm;
  Printf.printf
    "\ncrash 2: restart, losing everything the storm kept from persisting\n";
  (* Drop_all: the stormed record sits unfenced in the volatile buffer,
     and a Persist_all crash would persist it. *)
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Drop_all;
  let s = reattach () in
  expect "the table shows the op absent" (Sess.next_seq s = lost);
  let final = ref 0 in
  run (fun _ ->
      expect "its resubmission applies it once"
        (submit ~seq:lost s = Ok (Sess.Applied (updates + 1)));
      expect "the next op applies" (Result.is_ok (submit s));
      final := Sess.read s Cs.Get);
  let logical = updates + 2 in
  Printf.printf
    "\nfinal: counter = %d, expected %d: each logical operation applied \
     exactly once across both crashes\n"
    !final logical;
  if !final <> logical || !failed then begin
    print_endline "FAILED: the narration above diverged from exactly-once";
    exit 1
  end;
  print_endline "exactly-once held"
