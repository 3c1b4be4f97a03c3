(** E19 — cross-shard transactions: one coordinator fence vs two-phase
    commit, plus the atomicity crash campaign.

    Three parts, the first two exactly reproducible and gated by
    [onll gate]:

    - {b fence accounting (sim, deterministic)}: a workload of
      4-participant transactions (one kv put per shard) through
      {!Onll_txn} must cost {e exactly} one persistent fence per
      transaction — the coordinator commit append — against a naive
      two-phase-commit baseline built over the very same sharded object,
      which pays one force-write per participant ("prepare by doing")
      plus a durable decision record: [S + 1 = 5] fences. The gated
      headline: ONLL's fences/txn is at most [(S + 1) / 2] — at least 2x
      fewer — and in fact exactly 1.
    - {b atomicity chaos slice (sim, deterministic)}: a small
      {!Test_support.Txn_chaos} campaign (plain + mirrored arms, crash
      sweep, all-or-nothing + balanced-books audits, zero violations
      required) plus its unhardened calibration, which must be caught.
    - {b seeded crash campaign + native throughput}: the full campaign at
      [ONLL_E19_SEEDS] seeds per arm (default 200), and a native
      wall-clock comparison of transaction throughput against the 2PC
      baseline at a storage-class 20 us fence — the fence gap is the
      story, and the speedup approaches the 5:1 fence ratio as the fence
      latency dominates per-transaction CPU. Measurements are recorded
      as ungated gauges; the violation counters are what CI pins. *)

open Onll_machine
module Kv = Onll_specs.Kv

let n_shards = 4
let n_procs = 2
let txns_per_proc = 12

let env_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

(* The ONLL arms: the transaction coordinator over [n_shards] plain
   shards. *)
let stack = { Onll_stack.plain with top = Txn n_shards }

(* {2 The naive 2PC baseline}

   Over the SAME sharded construction, so the comparison isolates the
   commit protocol: prepare = force every sub-operation through its shard
   (each a complete one-fence durable update — "prepare by doing", the
   cheapest prepare a force-write-per-participant protocol can hope for),
   decide = one durable decision record in the coordinator's own log.
   S participants cost S + 1 fences; atomicity across a crash would
   additionally need the decision sweep ONLL gets from its oracle, which
   the baseline does not implement — it exists to price the fences. *)
module Two_pc (M : Onll_machine.Machine_sig.S) = struct
  module Sh = Onll_sharded.Make (M) (Kv)
  module L = Onll_plog.Plog.Make (M)

  type t = { sh : Sh.t; dec : L.t array; seqs : int array }

  let make ~shards cfg =
    {
      sh = Sh.make ~shards cfg;
      dec =
        Array.init M.max_processes (fun p ->
            L.create ~sink:cfg.Onll_core.Onll.Config.sink ~replicas:1
              ~name:(Printf.sprintf "kv.2pc.dec.%d" p)
              ~capacity:cfg.Onll_core.Onll.Config.log_capacity ());
      seqs = Array.make M.max_processes 0;
    }

  let txn t ops =
    (* prepare: one fenced durable update per participant *)
    let vs = List.map (Sh.update t.sh) ops in
    (* decide: one more fenced append *)
    let p = M.self () in
    let seq = t.seqs.(p) in
    t.seqs.(p) <- seq + 1;
    (try L.append t.dec.(p) Onll_util.Codec.(encode (pair int int) (p, seq))
     with Onll_plog.Plog.Full -> failwith "2pc decision log full");
    vs
end

(* One put per shard, per-process keys: probe the router for the p-th key
   it sends to each shard. *)
let shard_keys route p =
  Array.init n_shards (fun s ->
      let rec go i left =
        let k = Printf.sprintf "k%d" i in
        if route (Kv.Put (k, "")) = s then
          if left = 0 then k else go (i + 1) (left - 1)
        else go (i + 1) left
      in
      go 0 p)

(* {2 Part 1 — fence accounting (deterministic, gated)} *)

let fence_accounting summary =
  let total_txns = n_procs * txns_per_proc in
  (* ONLL arm *)
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let sim = Sim.create ~sink ~max_processes:n_procs () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Kv) in
  let obj =
    B.build stack
      { Onll_core.Onll.Config.default with sink; log_capacity = 1 lsl 18 }
  in
  let tx = Option.get obj.B.txn in
  let outcome =
    Sim.run sim
      (Onll_sched.Sched.Strategy.random ~seed:42)
      (Array.init n_procs (fun p _ ->
           let keys = shard_keys obj.B.shard_of p in
           for k = 1 to txns_per_proc do
             ignore
               (tx.B.txn
                  (List.init n_shards (fun s ->
                       Kv.Put (keys.(s), string_of_int k))))
           done))
  in
  assert (outcome = Onll_sched.Sched.World.Completed);
  let c name = Onll_obs.Metrics.counter_value registry name in
  (* Theorem 5.1 lifted to transactions: ONE fence per multi-shard
     transaction, however many participants — and nothing else fenced. *)
  assert (c "ops.txn" = total_txns);
  assert (c "fences.txn" = total_txns);
  assert (M.persistent_fences () = total_txns);
  let onll_per_txn = float_of_int (c "fences.txn") /. float_of_int total_txns in
  (* 2PC arm: the same workload, the same shards, the same schedule. *)
  let sim2 = Sim.create ~max_processes:n_procs () in
  let module M2 = (val Sim.machine sim2) in
  let module P = Two_pc (M2) in
  let obj2 =
    P.make ~shards:n_shards
      { Onll_core.Onll.Config.default with log_capacity = 1 lsl 18 }
  in
  let route2 op = P.Sh.shard_of_update obj2.P.sh op in
  let outcome =
    Sim.run sim2
      (Onll_sched.Sched.Strategy.random ~seed:42)
      (Array.init n_procs (fun p _ ->
           let keys = shard_keys route2 p in
           for k = 1 to txns_per_proc do
             ignore
               (P.txn obj2
                  (List.init n_shards (fun s ->
                       Kv.Put (keys.(s), string_of_int k))))
           done))
  in
  assert (outcome = Onll_sched.Sched.World.Completed);
  let twopc_fences = M2.persistent_fences () in
  assert (twopc_fences = (n_shards + 1) * total_txns);
  let twopc_per_txn = float_of_int twopc_fences /. float_of_int total_txns in
  (* The acceptance bound: at least 2x fewer fences per transaction than
     2PC at S = 4 — i.e. <= (S + 1) / 2 = 2.5. Actually exactly 1. *)
  assert (onll_per_txn <= twopc_per_txn /. 2.);
  let add name v =
    Onll_obs.Metrics.add (Onll_obs.Metrics.counter summary name) v
  in
  add "e19.acct.ops.txn" total_txns;
  add "e19.acct.fences.txn" (c "fences.txn");
  add "e19.acct.fences.2pc" twopc_fences;
  add "e19.acct.participants" n_shards;
  Printf.printf
    "fence accounting (sim, %d txns x %d participants): onll-txn %.2f \
     fences/txn vs 2PC %.2f (one prepare force-write per shard + a \
     decision) — %.1fx fewer\n"
    total_txns n_shards onll_per_txn twopc_per_txn
    (twopc_per_txn /. onll_per_txn)

(* {2 Part 2 — atomicity chaos slices (deterministic, gated)} *)

(* The gate's part: the fence accounting and a printed, recorded
   12-seed chaos slice, whose verdict the gate acts on. *)
let gated summary =
  fence_accounting summary;
  Harness.campaign ~reg:summary
    (Test_support.Txn_chaos.e19 ~seeds:12 ~calibration_seeds:8)

(* {2 Part 3 — seeded campaign + native throughput} *)

let native_throughput summary =
  (* Storage-class fence (~20 us, an SSD-ish flush): the regime where a
     commit protocol's fence count is the bill. At cache-line-flush
     latencies per-transaction CPU dominates and the two arms converge. *)
  let fence_ns = 20_000 in
  let total_txns = 4_000 in
  let run_arm which =
    let native = Native.create ~max_processes:1 ~fence_ns () in
    let module M = (val Native.machine native) in
    let cfg =
      { Onll_core.Onll.Config.default with log_capacity = 1 lsl 20 }
    in
    let dt =
      match which with
      | `Onll ->
          let module B = Onll_stack.Make (M) (Kv) in
          let obj = B.build stack cfg in
          let tx = Option.get obj.B.txn in
          let keys = shard_keys obj.B.shard_of 0 in
          let t0 = Unix.gettimeofday () in
          ignore
            (Native.run_workers native
               [
                 (fun _ ->
                   for k = 1 to total_txns do
                     ignore
                       (tx.B.txn
                          (List.init n_shards (fun s ->
                               Kv.Put (keys.(s), string_of_int (k land 63)))));
                     if k mod 256 = 0 then obj.B.compact ()
                   done);
               ]);
          Unix.gettimeofday () -. t0
      | `Two_pc ->
          let module P = Two_pc (M) in
          let obj = P.make ~shards:n_shards cfg in
          let route op = P.Sh.shard_of_update obj.P.sh op in
          let keys = shard_keys route 0 in
          let t0 = Unix.gettimeofday () in
          ignore
            (Native.run_workers native
               [
                 (fun _ ->
                   for k = 1 to total_txns do
                     ignore
                       (P.txn obj
                          (List.init n_shards (fun s ->
                               Kv.Put (keys.(s), string_of_int (k land 63)))));
                     if k mod 256 = 0 then begin
                       ignore (P.Sh.compact obj.P.sh : int);
                       Array.iter
                         (fun l ->
                           P.L.set_head l (P.L.entry_count l);
                           P.L.relocate l)
                         obj.P.dec
                     end
                   done);
               ]);
          Unix.gettimeofday () -. t0
    in
    Harness.ops_per_sec total_txns dt
  in
  let tx = Harness.best_of 2 (fun () -> run_arm `Onll) in
  let twopc = Harness.best_of 2 (fun () -> run_arm `Two_pc) in
  Printf.printf
    "native throughput (%d-participant txns, %dns fence): onll-txn %.2f \
     ktxn/s vs 2PC %.2f ktxn/s (%.2fx)\n"
    n_shards fence_ns (tx /. 1e3) (twopc /. 1e3) (tx /. twopc);
  Onll_obs.Metrics.set
    (Onll_obs.Metrics.gauge summary "ktxn.onll")
    (tx /. 1e3);
  Onll_obs.Metrics.set
    (Onll_obs.Metrics.gauge summary "ktxn.2pc")
    (twopc /. 1e3)

let run () =
  let summary = Onll_obs.Metrics.create () in
  fence_accounting summary;
  let seeds = env_int "ONLL_E19_SEEDS" 200 in
  Harness.assert_campaign ~reg:summary
    (Test_support.Txn_chaos.e19 ~seeds
       ~calibration_seeds:(max 10 (seeds / 10)));
  native_throughput summary;
  let path =
    Harness.write_snapshot ~experiment:"e19"
      ~meta:
        [
          ("participants", string_of_int n_shards);
          ("seeds", string_of_int seeds);
        ]
      summary
  in
  Printf.printf "snapshot: %s\n" path
