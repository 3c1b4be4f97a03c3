(** E1 — persistent fences per operation (Theorem 5.1).

    For every object specification and every implementation, run (a) an
    update-only phase and (b) a mixed update/read phase under a random
    schedule, and report persistent fences per update and per read. The
    paper's claim: ONLL costs exactly 1 per update and 0 per read; the
    linearize-early variant charges reads; shadow paging charges 2 per
    update; flat combining amortises below 1 by blocking; volatile pays
    nothing (and persists nothing).

    Attribution is direct: every implementation is built over an active
    {!Onll_obs.Sink.t} and records the invoking process's persistent-fence
    delta around each operation into ["fences.update"]/["fences.read"]
    (see {!Onll_obs.Opstats}), so reads are charged exactly what they
    executed — no subtraction heuristics against the update-only phase. *)

open Onll_machine

let n_procs = 3
let updates_phase = 20  (* per process *)
let mixed_updates = 10
let mixed_reads = 10

module Audit (S : Onll_core.Spec.S) = struct
  module R = Onll_baselines.Registry.Make (S)

  let build ~gen_update ~gen_read ~seed impl =
    let sink = Onll_obs.Sink.make () in
    let rng = Onll_util.Splitmix.create seed in
    match
      R.build ~sink
        ~options:
          {
            Onll_baselines.Registry.default_options with
            log_capacity = 1 lsl 18;
            state_capacity = 1 lsl 14;
          }
        ~max_processes:n_procs
        ~gen_update:(fun () -> gen_update rng)
        ~gen_read:(fun () -> gen_read rng)
        impl
    with
    | Some h -> h
    | None -> invalid_arg ("fence_audit: unknown implementation " ^ impl)

  let per_op registry ~fences ~ops =
    let f = Onll_obs.Metrics.counter_value registry fences in
    let n = Onll_obs.Metrics.counter_value registry ops in
    if n = 0 then 0. else float_of_int f /. float_of_int n

  (* Measure one implementation: (pf/update, pf/read). *)
  let measure ~gen_update ~gen_read impl =
    (* Phase U: updates only. *)
    let h = build ~gen_update ~gen_read ~seed:1 impl in
    let open Onll_baselines.Registry in
    let outcome =
      Sim.run h.sim
        (Onll_sched.Sched.Strategy.random ~seed:11)
        (Array.init n_procs (fun _ _ ->
             for _ = 1 to updates_phase do
               h.update ()
             done))
    in
    assert (outcome = Onll_sched.Sched.World.Completed);
    let per_update =
      per_op
        (Onll_obs.Sink.registry h.sink)
        ~fences:"fences.update" ~ops:"ops.update"
    in
    (* Phase M: mixed, on a fresh object (so histories are comparable). *)
    let h = build ~gen_update ~gen_read ~seed:2 impl in
    let outcome =
      Sim.run h.sim
        (Onll_sched.Sched.Strategy.random ~seed:23)
        (Array.init n_procs (fun _ _ ->
             for k = 1 to mixed_updates + mixed_reads do
               if k mod 2 = 0 then h.read () else h.update ()
             done))
    in
    assert (outcome = Onll_sched.Sched.World.Completed);
    let per_read =
      per_op
        (Onll_obs.Sink.registry h.sink)
        ~fences:"fences.read" ~ops:"ops.read"
    in
    (per_update, per_read)

  let rows ~summary ~gen_update ~gen_read =
    List.map
      (fun impl ->
        let per_update, per_read = measure ~gen_update ~gen_read impl in
        Onll_obs.Metrics.set
          (Onll_obs.Metrics.gauge summary
             (Printf.sprintf "pf_update.%s.%s" S.name impl))
          per_update;
        Onll_obs.Metrics.set
          (Onll_obs.Metrics.gauge summary
             (Printf.sprintf "pf_read.%s.%s" S.name impl))
          per_read;
        [
          S.name;
          impl;
          Onll_util.Table.fmt_float per_update;
          Onll_util.Table.fmt_float per_read;
        ])
      Onll_baselines.Registry.names
end

let run () =
  let module A_counter = Audit (Onll_specs.Counter) in
  let module A_register = Audit (Onll_specs.Register) in
  let module A_queue = Audit (Onll_specs.Queue_spec) in
  let module A_stack = Audit (Onll_specs.Stack_spec) in
  let module A_kv = Audit (Onll_specs.Kv) in
  let module A_set = Audit (Onll_specs.Set_spec) in
  let module A_ledger = Audit (Onll_specs.Ledger) in
  let open Test_support in
  let summary = Onll_obs.Metrics.create () in
  let rows =
    A_counter.rows ~summary ~gen_update:Gen.Counter.update
      ~gen_read:Gen.Counter.read
    @ A_register.rows ~summary ~gen_update:Gen.Register.update
        ~gen_read:Gen.Register.read
    @ A_queue.rows ~summary ~gen_update:Gen.Queue.update
        ~gen_read:Gen.Queue.read
    @ A_stack.rows ~summary ~gen_update:Gen.Stack.update
        ~gen_read:Gen.Stack.read
    @ A_kv.rows ~summary ~gen_update:Gen.Kv.update ~gen_read:Gen.Kv.read
    @ A_set.rows ~summary ~gen_update:Gen.Set_g.update
        ~gen_read:Gen.Set_g.read
    @ A_ledger.rows ~summary ~gen_update:Gen.Ledger.update
        ~gen_read:Gen.Ledger.read
  in
  Onll_util.Table.print
    ~title:
      "E1 — persistent fences per operation (Theorem 5.1: ONLL = 1 per \
       update, 0 per read)"
    ~header:
      [ "object"; "implementation"; "pf/update"; "pf/read" ]
    rows;
  (* Hard assertions for the headline claim. *)
  List.iter
    (fun row ->
      match row with
      | [ _; impl; pu; pr ]
        when impl = "onll" || impl = "onll-wait-free"
             || impl = "onll-mirrored" || impl = "onll-sharded"
             || impl = "onll-session" || impl = "onll-txn" ->
          (* onll-txn included: single updates take the fast path — a
             plain sharded update, so the transaction layer adds nothing
             to Theorem 5.1's per-operation cost. onll-session too: a
             submission is one update of the object over the client
             table, and the session owns no region to fence. *)
          assert (pu = "1" && pr = "0")
      | [ _; "onll-relaxed"; pu; pr ] ->
          (* Risk-budgeted lazy fences (E20): one fence drains a full
             k-deep tail, so strictly below 1 pf/update in steady state —
             and strictly positive (durability is deferred, never
             skipped); reads stay free. *)
          let pu = float_of_string pu in
          assert (pu < 1.0 && pu > 0. && pr = "0")
      | [ _; "onll-batched"; pu; pr ] ->
          (* Group commit amortises the fence across concurrent
             updates: an update another persist covers pays none, so at
             most 1 pf/update (Thm 6.3 — never beaten without concurrency
             to share it), strictly positive (the fence is real), still 0
             per read. *)
          let pu = float_of_string pu in
          assert (pu <= 1.0 && pu > 0. && pr = "0")
      | _ -> ())
    rows;
  print_endline
    "(asserted: every onll row reads exactly 1 pf/update, 0 pf/read — \
     mirroring included: both replica flushes drain under one fence; \
     sharding included: an update runs on exactly one shard, and global \
     reads fan out fence-free; sessions included: an exactly-once \
     submission is one update of the object over the client table; \
     group commit included: a covered update shares its window's fence, \
     at most 1 pf/update, and reads stay free; relaxed mode included: the \
     risk-budgeted lazy fence lands strictly below 1 pf/update by \
     deferring — not skipping — durability)";
  let path =
    Harness.write_snapshot ~experiment:"e1"
      ~meta:
        [
          ("processes", string_of_int n_procs);
          ("updates_per_proc", string_of_int updates_phase);
        ]
      summary
  in
  Printf.printf "snapshot: %s\n" path
