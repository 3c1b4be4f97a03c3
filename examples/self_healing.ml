(* Online self-healing: a mirrored kv object under continuous bit rot
   confined to the primary replica, CRC-scrubbed every [every] updates,
   then crashed and recovered. The recovery must come back clean, because
   every rotted byte had an intact mirror copy: healed live by the
   scrubber, or at recovery for rot that landed after the last scrub.
   Scrub fences are attributed to fences.scrub, never to updates. Exits 1
   on any loss.

   Run with: dune exec examples/self_healing.exe [-- UPDATES [EVERY [SEED]]]
   (defaults 200, 10 and 1). Drive it across a grid of all three: a
   repair race that depends on the scrub frequency only shows away from
   the defaults. *)

open Onll_machine
module Kv = Onll_specs.Kv

(* Puts and deletes over four keys, values drawn from fifty. *)
let key rng = [| "a"; "b"; "c"; "d" |].(Onll_util.Splitmix.int rng 4)

let kv_update rng =
  if Onll_util.Splitmix.int rng 4 = 0 then Kv.Delete (key rng)
  else Kv.Put (key rng, Printf.sprintf "v%d" (Onll_util.Splitmix.int rng 50))

let () =
  let arg i default =
    if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default
  in
  let updates = arg 1 200 and every = arg 2 10 and seed = arg 3 1 in
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Kv) in
  let obj =
    C.make { Onll_core.Onll.Config.default with sink; replicas = 2 }
  in
  let fault =
    {
      Onll_faults.Faults.Plan.none with
      seed;
      rot_ops_interval = 25;
      media_window = 2048;
      target = (fun n -> not (Onll_plog.Plog.is_mirror_region n));
    }
  in
  let handle = Onll_faults.Faults.install mem fault in
  let rng = Onll_util.Splitmix.create seed in
  let total = ref Onll_plog.Plog.clean_scrub in
  let body _ =
    for k = 1 to updates do
      ignore (C.update obj (kv_update rng));
      if k mod every = 0 then
        total := Onll_plog.Plog.add_scrub !total (C.scrub obj)
    done
  in
  (match Sim.run sim Onll_sched.Sched.Strategy.round_robin [| body |] with
  | Onll_sched.Sched.World.Completed -> ()
  | _ -> failwith "the simulated workload did not complete");
  Onll_faults.Faults.set_rot handle false;
  Format.printf "workload: %d mirrored kv updates, scrub every %d@." updates
    every;
  Format.printf "injected: %a@." Onll_faults.Faults.pp_counters
    (Onll_faults.Faults.counters handle);
  Format.printf "scrubs:   %a@." Onll_plog.Plog.pp_scrub_report !total;
  Format.printf "degraded: %b@." (C.degraded obj);
  Format.printf
    "scrub fences: %d across %d passes (attributed to fences.scrub, never \
     to updates: pf/update stays %g)@."
    (Onll_obs.Metrics.counter_value registry "fences.scrub")
    (Onll_obs.Metrics.counter_value registry "ops.scrub")
    (float_of_int (Onll_obs.Metrics.counter_value registry "fences.update")
    /. float_of_int
         (max 1 (Onll_obs.Metrics.counter_value registry "ops.update")));
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Drop_all;
  let r = C.recover_report obj in
  Onll_faults.Faults.remove handle;
  Format.printf "post-crash recovery: %a@."
    Onll_core.Onll.Recovery_report.pp r;
  if not (Onll_core.Onll.Recovery_report.clean r) then begin
    Format.printf
      "FAILED: primary-only rot should always be repairable from the \
       mirror@.";
    exit 1
  end;
  Format.printf
    "clean: every rotted byte was healed (online by the scrubber, or from \
     the mirror at recovery)@."
