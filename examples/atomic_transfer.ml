(* Cross-shard atomic commit (E19): a transfer between accounts on
   different shards of a 4-shard kv object, paid for with ONE coordinator
   fence (2PC would pay one force-write per participant plus a decision);
   then a crash parked before the commit fence (nothing of the transfer
   may survive), and a crash after it (all of it must, replayed from the
   single commit record). Exits 1 if the committed transfer is lost.

   Run with: dune exec examples/atomic_transfer.exe *)

open Onll_machine

let () =
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let mem = Sim.memory sim in
  let module M = (val Sim.machine sim) in
  let module Tx = Onll_txn.Make (M) (Onll_specs.Kv) in
  let module Kv = Onll_specs.Kv in
  let obj = Tx.make ~shards:4 { Onll_core.Onll.Config.default with sink } in
  let route op = Tx.Sh.shard_of_update (Tx.sharded obj) op in
  let key_for s =
    let rec go i =
      let k = Printf.sprintf "acct-%d" i in
      if route (Kv.Put (k, "")) = s then k else go (i + 1)
    in
    go 0
  in
  let alice = key_for 0 and bob = key_for 1 in
  let balance k =
    match Tx.read obj (Kv.Get k) with
    | Kv.Found (Some v) -> v
    | _ -> "(absent)"
  in
  let run1 body =
    match Sim.run sim Onll_sched.Sched.Strategy.round_robin [| body |] with
    | Onll_sched.Sched.World.Completed -> ()
    | _ -> assert false
  in
  Format.printf
    "a 4-shard kv object; %s lives on shard 0, %s on shard 1@." alice bob;
  run1 (fun _ ->
      ignore (Tx.update obj (Kv.Put (alice, "100")));
      ignore (Tx.update obj (Kv.Put (bob, "100"))));
  Format.printf "funded both accounts: 2 updates, %d fences@."
    (M.persistent_fences ());
  let before = M.persistent_fences () in
  run1 (fun _ ->
      ignore
        (Tx.txn_detectable obj ~seq:0
           [ Kv.Put (alice, "60"); Kv.Put (bob, "140") ]));
  Format.printf
    "transfer 40 (%s -> %s), both shards atomically: %d fence (2PC would \
     pay 3: one prepare force-write per shard + a decision)@."
    alice bob
    (M.persistent_fences () - before);
  Format.printf "balances: %s=%s %s=%s@." alice (balance alice) bob
    (balance bob);
  (* crash parked BEFORE the commit fence: the staged transfer must
     vanish whole *)
  let script =
    Onll_sched.Sched.Strategy.script
      [
        Onll_sched.Sched.Strategy.run_until_pfence 0;
        Onll_sched.Sched.Strategy.Crash_here;
      ]
  in
  (match
     Sim.run sim script
       [|
         (fun _ ->
           ignore
             (Tx.txn_detectable obj ~seq:1
                [ Kv.Put (alice, "0"); Kv.Put (bob, "200") ]));
       |]
   with
  | Onll_sched.Sched.World.Crashed -> ()
  | _ -> assert false);
  Format.printf
    "@.crash parked before the commit fence of a second transfer...@.";
  let r = Tx.recover_report obj in
  Format.printf "recovery: %a@." Onll_core.Onll.Recovery_report.pp r;
  Format.printf
    "txn seq 1 committed? %b — and the books show it: %s=%s %s=%s \
     (all-or-nothing: nothing of it survived)@."
    (Tx.txn_was_committed obj { Onll_txn.txn_proc = 0; txn_seq = 1 })
    alice (balance alice) bob (balance bob);
  (* the same transfer run to completion, then a crash: all of it must
     survive, replayed from the one commit record *)
  run1 (fun _ ->
      ignore
        (Tx.txn_detectable obj ~seq:1
           [ Kv.Put (alice, "0"); Kv.Put (bob, "200") ]));
  Onll_nvm.Memory.crash mem ~policy:Onll_nvm.Crash_policy.Drop_all;
  Format.printf "@.the same transfer completed, then a crash...@.";
  let r = Tx.recover_report obj in
  Format.printf "recovery: %a@." Onll_core.Onll.Recovery_report.pp r;
  Format.printf
    "txn seq 1 committed? %b — %s=%s %s=%s (replayed in full from the one \
     commit record; %d sub-ops swept back in)@."
    (Tx.txn_was_committed obj { Onll_txn.txn_proc = 0; txn_seq = 1 })
    alice (balance alice) bob (balance bob)
    (Onll_obs.Metrics.counter_value registry "txn.sweep.injected");
  if balance alice <> "0" || balance bob <> "200" then begin
    Format.printf "FAILED: the committed transfer did not survive@.";
    exit 1
  end;
  Format.printf
    "@.fences.txn=%d over ops.txn=%d — one fence per transaction@."
    (Onll_obs.Metrics.counter_value registry "fences.txn")
    (Onll_obs.Metrics.counter_value registry "ops.txn")
