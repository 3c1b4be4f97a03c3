open Onll_machine
open Onll_sched
module Cs = Onll_specs.Counter

type execution1 = {
  e1_update_returned : int;
  e1_read_returned : int;
  e1_trace : (int * bool) list;
}

type execution2 = {
  e2_r1 : int;
  e2_r2 : int;
  e2_update_returned : int;
}

type execution3 = {
  e3_p2_returned : int;
  e3_p2_log_ops : int;
  e3_reader_after_p2 : int;
  e3_p1_returned : int;
}

type execution4 = {
  e4_reader_during : int;
  e4_recovered_value : int;
  e4_p1_linearized : bool;
  e4_p2_linearized : bool;
  e4_p3_linearized : bool;
}

let execution1 () =
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let upd = ref 0 and rd = ref 0 in
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [|
         (fun _ ->
           upd := C.update obj Cs.Increment;
           rd := C.read obj Cs.Get);
       |]);
  {
    e1_update_returned = !upd;
    e1_read_returned = !rd;
    e1_trace =
      List.map
        (fun (i, f, _) -> (i, f = Onll_core.Trace_intf.durable))
        (C.trace_nodes obj);
  }

(* Park an updater right after its log append's persistent fence but before
   it sets the available flag: run it to just before the fence, execute the
   fence, leaving it paused at the next primitive (the flag store). *)
let park_after_persist p =
  [ Sched.Strategy.run_until_pfence p; Sched.Strategy.Run_steps (p, 1) ]

let execution2 () =
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  (* Figure: the counter starts at 1 (node n1 already in the trace). *)
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [| (fun _ -> ignore (C.update obj Cs.Increment)) |]);
  let upd = ref 0 and r1 = ref (-1) and r2 = ref (-1) in
  let procs =
    [|
      (fun _ -> upd := C.update obj Cs.Increment);
      (fun _ -> r1 := C.read obj Cs.Get);
      (fun _ -> r2 := C.read obj Cs.Get);
    |]
  in
  let script =
    park_after_persist 0
    @ [
        Sched.Strategy.Run_to_completion 1;  (* r1: flag unset, sees n1 *)
        Sched.Strategy.Run_steps (0, 1);  (* the available flag is set *)
        Sched.Strategy.Run_to_completion 2;  (* r2: sees n2 *)
        Sched.Strategy.Run_to_completion 0;
      ]
  in
  ignore (Sim.run sim (Sched.Strategy.script script) procs);
  { e2_r1 = !r1; e2_r2 = !r2; e2_update_returned = !upd }

let execution3 () =
  let sim = Sim.create ~max_processes:3 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  ignore
    (Sim.run sim Sched.Strategy.round_robin
       [| (fun _ -> ignore (C.update obj Cs.Increment)) |]);
  let p1 = ref 0 and p2 = ref 0 and reader = ref (-1) in
  let procs =
    [|
      (fun _ -> p1 := C.update obj Cs.Increment);
      (fun _ -> p2 := C.update obj Cs.Increment);
      (fun _ -> reader := C.read obj Cs.Get);
    |]
  in
  let script =
    park_after_persist 0  (* paper's p1: persisted n2, flag unset *)
    @ [
        Sched.Strategy.Run_to_completion 1;  (* paper's p2: helps persist n2 *)
        Sched.Strategy.Run_to_completion 2;  (* reader: n3 available -> 3 *)
        Sched.Strategy.Run_to_completion 0;  (* p1 finishes: returns 2 *)
      ]
  in
  ignore (Sim.run sim (Sched.Strategy.script script) procs);
  (* p2's (process 1's) single log entry covers both fuzzy operations. *)
  let p2_ops =
    match (List.nth (C.snapshot obj).Onll_core.Onll.Snapshot.logs 1).Onll_core.Onll.Snapshot.ops_per_entry with [ n ] -> n | _ -> -1
  in
  {
    e3_p2_returned = !p2;
    e3_p2_log_ops = p2_ops;
    e3_reader_after_p2 = !reader;
    e3_p1_returned = !p1;
  }

let execution4 () =
  let sim = Sim.create ~max_processes:4 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let reader = ref (-1) in
  let procs =
    [|
      (fun _ -> ignore (C.update obj Cs.Increment));
      (fun _ -> ignore (C.update obj Cs.Increment));
      (fun _ -> ignore (C.update obj Cs.Increment));
      (fun _ -> reader := C.read obj Cs.Get);
    |]
  in
  let script =
    [
      (* paper's p1: insert n1, park before touching the log *)
      Sched.Strategy.Run_until (0, fun l -> l = Sched.Prim "pm.store64");
    ]
    @ park_after_persist 1
      (* paper's p2: entry {n2, n1} durable, flag unset *)
    @ [
        (* paper's p3: entry {n3, n2, n1} written but never fenced *)
        Sched.Strategy.run_until_pfence 2;
        (* a concurrent reader: no flag is set, it sees the initial state *)
        Sched.Strategy.Run_to_completion 3;
        Sched.Strategy.Crash_here;
      ]
  in
  let outcome = Sim.run sim (Sched.Strategy.script script) procs in
  assert (outcome = Sched.World.Crashed);
  C.recover obj;
  let lin p = C.was_linearized obj { Onll_core.Onll.id_proc = p; id_seq = 0 } in
  {
    e4_reader_during = !reader;
    e4_recovered_value = C.read obj Cs.Get;
    e4_p1_linearized = lin 0;
    e4_p2_linearized = lin 1;
    e4_p3_linearized = lin 2;
  }

let print_all () =
  let say fmt = Format.printf fmt in
  let e1 = execution1 () in
  say "@.== Figure 1, execution 1: sequential update and read ==@.";
  say "update returned %d (expected 1); read returned %d (expected 1)@."
    e1.e1_update_returned e1.e1_read_returned;
  say "trace (idx, available): %s@."
    (String.concat " "
       (List.map (fun (i, a) -> Printf.sprintf "(%d,%b)" i a) e1.e1_trace));
  let e2 = execution2 () in
  say "@.== Figure 1, execution 2: update concurrent with two readers ==@.";
  say "r1 (before flag) returned %d (expected 1)@." e2.e2_r1;
  say "r2 (after flag) returned %d (expected 2)@." e2.e2_r2;
  say "update returned %d (expected 2)@." e2.e2_update_returned;
  let e3 = execution3 () in
  say "@.== Figure 1, execution 3: update helping another update ==@.";
  say "p2 returned %d (expected 3); its log entry persisted %d ops \
       (expected 2: helped p1)@."
    e3.e3_p2_returned e3.e3_p2_log_ops;
  say "reader returned %d (expected 3, though n2's flag is unset)@."
    e3.e3_reader_after_p2;
  say "p1 finally returned %d (expected 2)@." e3.e3_p1_returned;
  let e4 = execution4 () in
  say "@.== Figure 1, execution 4: crash concurrent with updates ==@.";
  say "concurrent reader returned %d (expected 0: nothing available)@."
    e4.e4_reader_during;
  say "recovered value %d (expected 2: p1 and p2 via p2's log; p3 lost)@."
    e4.e4_recovered_value;
  say "linearized: p1=%b p2=%b p3=%b (expected true true false)@."
    e4.e4_p1_linearized e4.e4_p2_linearized e4.e4_p3_linearized
