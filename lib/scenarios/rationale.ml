(** The §3.1 case analysis, executed.

    The paper derives ONLL's design from a contradiction: suppose an
    update's linearization point is {e not} after its write to NVM. Then a
    reader may observe the update before it is durable, and one of three
    bad things must happen — the reader's response becomes unrecoverable,
    the reader waits (losing lock-freedom), or the reader helps persist
    (losing fence-free reads). This module runs all three branches against
    real implementations of each choice, plus ONLL's escape, under the same
    scripted schedule — updater parked right before its persistent fence,
    reader runs, crash (drop-all), recover — and reports what each design
    did. The oracle-facing versions of these runs (with full history
    checking) live in [test/test_oracle.ml] and [test/test_baselines.ml]. *)

open Onll_machine
open Onll_sched
module Cs = Onll_specs.Counter

type branch_result = {
  b_name : string;
  b_story : string;
  b_reader_saw : int option;  (** [None]: the reader never returned *)
  b_recovered : int;
  b_verdict : string;
}

let bad_window_script () =
  [
    Sched.Strategy.run_until_pfence 0;  (* updater parked, pre-fence *)
    Sched.Strategy.Run_to_completion 1;  (* reader *)
    Sched.Strategy.Crash_here;
  ]

(* Run the scripted window; the closures must all operate on an object
   living on [sim]. *)
let branch ~name ~story ~sim ~(update : unit -> int) ~(read : unit -> int)
    ~(recover : unit -> unit) =
  let reader_saw = ref None in
  let procs =
    [|
      (fun _ -> ignore (update ()));
      (fun _ -> reader_saw := Some (read ()));
    |]
  in
  let outcome =
    match
      Sim.run ~max_steps:20_000 sim
        (Sched.Strategy.script (bad_window_script ()))
        procs
    with
    | o -> `Outcome o
    | exception Sched.Stuck _ -> `Livelock
  in
  (* A livelocked run never reaches the scripted crash; crash manually so
     every branch is compared post-recovery. *)
  (match outcome with
  | `Livelock ->
      Onll_nvm.Memory.crash (Sim.memory sim)
        ~policy:Onll_nvm.Crash_policy.Drop_all
  | `Outcome _ -> ());
  recover ();
  let recovered = read () in
  let verdict =
    match (!reader_saw, outcome) with
    | Some seen, _ when seen > recovered ->
        "DURABILITY VIOLATION: the reader observed an update the crash \
         erased"
    | None, `Livelock ->
        "LIVELOCK: the reader waited forever behind the stalled updater \
         (lock-freedom lost)"
    | Some _, _ -> "consistent: the reader's observation survived"
    | None, `Outcome _ -> "reader cut by the crash before responding"
  in
  { b_name = name; b_story = story; b_reader_saw = !reader_saw;
    b_recovered = recovered; b_verdict = verdict }

let run_all () =
  let b1 =
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module B = Onll_baselines.Linearize_early.Make (M) (Cs) in
    let obj = B.create Onll_baselines.Linearize_early.Return in
    branch ~name:"branch 1: reader just returns"
      ~story:
        "linearize early; the reader neither waits nor helps \
         (Linearize_early, Return)"
      ~sim
      ~update:(fun () -> B.update obj Cs.Increment)
      ~read:(fun () -> B.read obj Cs.Get)
      ~recover:(fun () -> B.recover obj)
  in
  let b2 =
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module W = Onll_baselines.Linearize_early.Make (M) (Cs) in
    let obj = W.create Onll_baselines.Linearize_early.Wait in
    branch ~name:"branch 2: reader waits"
      ~story:
        "linearize early; the reader spins until its observation is \
         durable (Linearize_early, Wait)"
      ~sim
      ~update:(fun () -> W.update obj Cs.Increment)
      ~read:(fun () -> W.read obj Cs.Get)
      ~recover:(fun () -> W.recover obj)
  in
  let b3 =
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module P = Onll_baselines.Linearize_early.Make (M) (Cs) in
    let obj = P.create Onll_baselines.Linearize_early.Help in
    branch ~name:"branch 3: reader helps"
      ~story:
        "linearize early; the reader persists its observation before \
         returning (Linearize_early, Help) — correct, but reads pay fences"
      ~sim
      ~update:(fun () -> P.update obj Cs.Increment)
      ~read:(fun () -> P.read obj Cs.Get)
      ~recover:(fun () -> P.recover obj)
  in
  let escape =
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module C = Onll_core.Onll.Make (M) (Cs) in
    let obj = C.make Onll_core.Onll.Config.default in
    branch ~name:"onll: linearize after persist"
      ~story:
        "the unpersisted update is simply not visible yet; the reader sees \
         the previous state, nothing waits, no read ever fences"
      ~sim
      ~update:(fun () -> C.update obj Cs.Increment)
      ~read:(fun () -> C.read obj Cs.Get)
      ~recover:(fun () -> C.recover obj)
  in
  [ b1; b2; b3; escape ]

let print_all () =
  Format.printf
    "@.== §3.1: what can happen when an update is visible before it is \
     durable ==@.@.";
  Format.printf
    "schedule: updater parked just before its persistent fence; a reader \
     runs; full-system crash (drop-all); recovery.@.@.";
  List.iter
    (fun r ->
      Format.printf "%s@.  %s@." r.b_name r.b_story;
      (match r.b_reader_saw with
      | Some v -> Format.printf "  reader returned %d" v
      | None -> Format.printf "  reader never returned");
      Format.printf "; recovered value %d@." r.b_recovered;
      Format.printf "  => %s@.@." r.b_verdict)
    (run_all ())
