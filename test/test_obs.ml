(** The observability layer: metrics registry, sinks, exporters, the
    unified [Config]/[Snapshot] construction API and the implementation
    registry. The headline end-to-end check: with one sink installed in
    both the machine and the object, the attributed ["fences.update"]
    counter, the machine's own fence statistics and Theorem 5.1's
    "one persistent fence per update" all agree exactly. *)

open Onll_machine
open Onll_sched
module Cs = Onll_specs.Counter
module Obs = Onll_obs

let check = Alcotest.check

(* {1 Metrics registry} *)

let test_metrics_basics () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "fences.total" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  check Alcotest.int "counter" 5 (Obs.Metrics.count c);
  (* get-or-create resolves the same handle *)
  Obs.Metrics.incr (Obs.Metrics.counter r "fences.total");
  check Alcotest.int "shared handle" 6
    (Obs.Metrics.counter_value r "fences.total");
  let g = Obs.Metrics.gauge r "ops_per_sec" in
  Obs.Metrics.set g 1.5;
  Obs.Metrics.set g 2.5;
  check (Alcotest.float 0.) "gauge is last-write-wins" 2.5
    (Obs.Metrics.value g);
  let h = Obs.Metrics.histogram r "window" in
  List.iter (Obs.Metrics.observe h) [ 1; 3; 2 ];
  let s = Obs.Metrics.summary h in
  check Alcotest.int "hist count" 3 s.Obs.Metrics.hs_count;
  check Alcotest.int "hist sum" 6 s.Obs.Metrics.hs_sum;
  check Alcotest.int "hist min" 1 s.Obs.Metrics.hs_min;
  check Alcotest.int "hist max" 3 s.Obs.Metrics.hs_max;
  check (Alcotest.float 1e-9) "hist mean" 2. s.Obs.Metrics.hs_mean;
  check Alcotest.int "dump size" 3 (List.length (Obs.Metrics.dump r))

let test_metrics_kind_mismatch () =
  let r = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter r "x");
  Alcotest.check_raises "same name, different kind"
    (Obs.Metrics.Kind_mismatch "x") (fun () -> ignore (Obs.Metrics.gauge r "x"))

(* {1 Sinks} *)

let test_null_sink_inactive () =
  check Alcotest.bool "null inactive" false (Obs.Sink.active Obs.Sink.null);
  Obs.Sink.emit Obs.Sink.null ~proc:0 Obs.Event.Crash;
  check Alcotest.int "null clock never advances" 0
    (Obs.Sink.now Obs.Sink.null);
  (* Its registry exists (pre-resolved handles) but is never written. *)
  check Alcotest.bool "null registry never written" true
    (List.for_all
       (fun (_, v) -> v = Obs.Metrics.Int 0)
       (Obs.Metrics.dump (Obs.Sink.registry Obs.Sink.null)))

let test_sink_folds_and_stamps () =
  let sink, events = Obs.Sink.recording () in
  Obs.Sink.emit sink ~proc:0 (Obs.Event.Fence { persistent = true });
  Obs.Sink.emit sink ~proc:1 (Obs.Event.Fence { persistent = false });
  Obs.Sink.emit sink ~proc:1 (Obs.Event.Help { helped = 2 });
  Obs.Sink.emit sink ~proc:(-1) Obs.Event.Crash;
  let r = Obs.Sink.registry sink in
  check Alcotest.int "fences.total" 2 (Obs.Metrics.counter_value r "fences.total");
  check Alcotest.int "fences.persistent" 1
    (Obs.Metrics.counter_value r "fences.persistent");
  check Alcotest.int "help.ops" 2 (Obs.Metrics.counter_value r "help.ops");
  check Alcotest.int "crashes" 1 (Obs.Metrics.counter_value r "crashes");
  let evs = events () in
  check Alcotest.int "all recorded" 4 (List.length evs);
  check
    Alcotest.(list int)
    "logical clock is 0,1,2,..." [ 0; 1; 2; 3 ]
    (List.map (fun e -> e.Obs.Event.time) evs);
  check Alcotest.int "clock" 4 (Obs.Sink.now sink)

(* {1 Exporters} *)

let test_export_json_and_csv () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter r "fences.update") 7;
  Obs.Metrics.observe (Obs.Metrics.histogram r "fuzzy.window") 2;
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let json = Obs.Export.json ~meta:[ ("experiment", "t") ] r in
  check Alcotest.bool "json meta" true
    (contains json {|"experiment": "t"|});
  check Alcotest.bool "json counter" true
    (contains json {|"fences.update": 7|});
  check Alcotest.bool "json histogram" true (contains json {|"count": 1|});
  let csv = Obs.Export.csv ~meta:[ ("experiment", "t") ] r in
  check Alcotest.bool "csv meta" true (contains csv "# experiment=t");
  check Alcotest.bool "csv counter" true (contains csv "fences.update,7");
  check Alcotest.bool "csv hist row" true (contains csv "fuzzy.window.max,2")

let test_read_scalars_roundtrips_json () =
  (* The bench gate trusts read_scalars to reload exactly the scalars the
     JSON exporter wrote (histograms skipped), so the pair must roundtrip
     — including gauges that only survive %.17g printing. *)
  let r = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter r "fences.update") 300;
  Obs.Metrics.set (Obs.Metrics.gauge r "mops.kv.s4") 1.2345678901234567;
  Obs.Metrics.set (Obs.Metrics.gauge r "speedup") 2.;
  Obs.Metrics.observe (Obs.Metrics.histogram r "fuzzy.window") 3;
  let path = Filename.temp_file "onll-obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Export.write_file ~path
        (Obs.Export.json ~meta:[ ("experiment", "t") ] r);
      let scalars = Obs.Export.read_scalars ~path in
      check
        Alcotest.(list (pair string (float 0.)))
        "scalars roundtrip, histogram skipped, file order kept"
        [
          ("fences.update", 300.);
          ("mops.kv.s4", 1.2345678901234567);
          ("speedup", 2.);
        ]
        scalars)

(* {1 Config / Snapshot — the unified construction API} *)

let test_config_make_is_deterministic () =
  (* Two objects from the same Config on one machine behave identically
     and never share durable state (instance-qualified region names). *)
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let a = C.make { Onll_core.Onll.Config.default with log_capacity = 4096 } in
  let b = C.make { Onll_core.Onll.Config.default with log_capacity = 4096 } in
  for _ = 1 to 10 do
    ignore (C.update a Cs.Increment);
    ignore (C.update b Cs.Increment)
  done;
  check Alcotest.int "same value" (C.read a Cs.Get) (C.read b Cs.Get);
  let names snap =
    List.map
      (fun l -> l.Onll_core.Onll.Snapshot.log_name)
      snap.Onll_core.Onll.Snapshot.logs
  in
  check Alcotest.bool "distinct durable regions" true
    (List.for_all
       (fun n -> not (List.mem n (names (C.snapshot b))))
       (names (C.snapshot a)));
  check Alcotest.bool "default sink is null" false
    (Obs.Sink.active (C.sink b))

let test_snapshot_is_consistent () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make { Onll_core.Onll.Config.default with log_capacity = 8192 } in
  let procs =
    Array.init 2 (fun _ ->
        fun _ ->
          for _ = 1 to 10 do
            ignore (C.update obj Cs.Increment)
          done)
  in
  ignore (Sim.run sim (Sched.Strategy.random ~seed:5) procs);
  let snap = C.snapshot obj in
  let open Onll_core.Onll.Snapshot in
  check Alcotest.int "latest_available_idx is the durable history" 20
    snap.latest_available_idx;
  check Alcotest.bool "fuzzy window within Prop 5.2 bound" true
    (snap.max_fuzzy_window >= 1 && snap.max_fuzzy_window <= 2);
  check Alcotest.int "one log per process" 2 (List.length snap.logs);
  List.iter
    (fun l ->
      check Alcotest.int "entry count matches helping profile"
        (List.length l.ops_per_entry) l.entry_count;
      check Alcotest.bool "live fits used" true (l.live_bytes <= l.used_bytes))
    snap.logs;
  (* Every persisted envelope is accounted to some entry. *)
  let envs =
    List.fold_left
      (fun a l -> a + List.fold_left ( + ) 0 l.ops_per_entry)
      0 snap.logs
  in
  check Alcotest.bool "all 20 updates persisted" true (envs >= 20)

(* {1 End-to-end attribution (Theorem 5.1 through the sink)} *)

let test_fence_attribution_matches_machine () =
  let procs_n = 4 and updates = 12 in
  let sink = Obs.Sink.make () in
  let sim = Sim.create ~sink ~max_processes:procs_n () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make { Onll_core.Onll.Config.default with sink } in
  let procs =
    Array.init procs_n (fun _ ->
        fun _ ->
          for _ = 1 to updates do
            ignore (C.update obj Cs.Increment);
            ignore (C.read obj Cs.Get)
          done)
  in
  let outcome = Sim.run sim (Sched.Strategy.random ~seed:9) procs in
  check Alcotest.bool "completed" true (outcome = Sched.World.Completed);
  let r = Obs.Sink.registry sink in
  let machine_fences =
    (Sim.stats sim).Onll_nvm.Memory.Stats.persistent_fences
  in
  (* One persistent fence per update — and the attributed counter, the
     machine totals and the event-folded counter all see the same thing. *)
  check Alcotest.int "fences.update = #updates" (procs_n * updates)
    (Obs.Metrics.counter_value r "fences.update");
  check Alcotest.int "machine agrees" machine_fences
    (Obs.Metrics.counter_value r "fences.update");
  check Alcotest.int "event fold agrees" machine_fences
    (Obs.Metrics.counter_value r "fences.persistent");
  check Alcotest.int "reads are free" 0
    (Obs.Metrics.counter_value r "fences.read");
  check Alcotest.int "ops.update" (procs_n * updates)
    (Obs.Metrics.counter_value r "ops.update");
  check Alcotest.int "ops.read" (procs_n * updates)
    (Obs.Metrics.counter_value r "ops.read");
  (* Prop 5.2: every observed fuzzy window is within MAX-PROCESSES. *)
  let h =
    Obs.Metrics.(summary (histogram r "fuzzy.window"))
  in
  check Alcotest.int "every update observed a window" (procs_n * updates)
    h.Obs.Metrics.hs_count;
  check Alcotest.bool "window bounded by MAX-PROCESSES" true
    (h.Obs.Metrics.hs_max <= procs_n)

let test_event_order_across_crash_and_recovery () =
  let sink, events = Obs.Sink.recording () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make { Onll_core.Onll.Config.default with sink } in
  for _ = 1 to 5 do
    ignore (C.update obj Cs.Increment)
  done;
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Persist_all;
  C.recover obj;
  check Alcotest.int "value recovered" 5 (C.read obj Cs.Get);
  let evs = events () in
  (* Timestamps are unique and monotone. *)
  let times = List.map (fun e -> e.Obs.Event.time) evs in
  check Alcotest.bool "monotone clock" true
    (List.for_all2 ( = ) times (List.init (List.length times) Fun.id));
  let pos kind =
    let rec go i = function
      | [] -> Alcotest.failf "no %s event" kind
      | e :: tl ->
          if Obs.Event.kind_label e.Obs.Event.kind = kind then i
          else go (i + 1) tl
    in
    go 0 evs
  in
  (* Machine-level and object-level events interleave in one stream: the
     crash (emitted by the memory) precedes the recovery (emitted by the
     construction), which precedes nothing else of its kind. *)
  check Alcotest.bool "crash before recovery" true
    (pos "crash" < pos "recovery");
  check Alcotest.bool "some pfence before the crash" true
    (pos "pfence" < pos "crash");
  let r = Obs.Sink.registry sink in
  check Alcotest.int "one crash" 1 (Obs.Metrics.counter_value r "crashes");
  check Alcotest.int "one recovery" 1
    (Obs.Metrics.counter_value r "recoveries");
  check Alcotest.int "recovery replayed the history" 5
    (Obs.Metrics.counter_value r "recovery.ops")

(* {1 The implementation registry} *)

let test_registry_builds_every_name () =
  let module R = Onll_baselines.Registry.Make (Cs) in
  List.iter
    (fun name ->
      match
        R.build ~max_processes:2
          ~gen_update:(fun () -> Cs.Increment)
          ~gen_read:(fun () -> Cs.Get)
          name
      with
      | None -> Alcotest.failf "registry cannot build %s" name
      | Some h ->
          let open Onll_baselines.Registry in
          let outcome =
            Sim.run h.sim
              (Sched.Strategy.random ~seed:3)
              (Array.init 2 (fun _ ->
                   fun _ ->
                    for _ = 1 to 4 do
                      h.update ();
                      h.read ()
                    done))
          in
          check Alcotest.bool
            (name ^ " completes")
            true
            (outcome = Sched.World.Completed))
    Onll_baselines.Registry.names;
  check Alcotest.bool "alias accepted" true
    (R.build ~max_processes:1
       ~gen_update:(fun () -> Cs.Increment)
       ~gen_read:(fun () -> Cs.Get)
       "wait-free"
    <> None);
  check Alcotest.bool "unknown rejected" true
    (R.build ~max_processes:1
       ~gen_update:(fun () -> Cs.Increment)
       ~gen_read:(fun () -> Cs.Get)
       "mystery"
    = None)

let test_registry_attribution_per_impl () =
  let module R = Onll_baselines.Registry.Make (Cs) in
  (* (impl, expected fences.update for 1 proc x 6 sequential updates) *)
  let expect = [ ("onll", 6); ("shadow", 12); ("volatile", 0) ] in
  List.iter
    (fun (name, fences) ->
      let sink = Obs.Sink.make () in
      match
        R.build ~sink ~max_processes:1
          ~gen_update:(fun () -> Cs.Increment)
          ~gen_read:(fun () -> Cs.Get)
          name
      with
      | None -> Alcotest.failf "build %s" name
      | Some h ->
          let open Onll_baselines.Registry in
          let outcome =
            Sim.run h.sim
              (Sched.Strategy.random ~seed:7)
              [|
                (fun _ ->
                  for _ = 1 to 6 do
                    h.update ()
                  done);
              |]
          in
          check Alcotest.bool "completed" true
            (outcome = Sched.World.Completed);
          check Alcotest.int
            (name ^ " fences.update")
            fences
            (Obs.Metrics.counter_value
               (Obs.Sink.registry h.sink)
               "fences.update"))
    expect

(* [--shards] sizes the sharded families and nothing else: a shard count
   handed to every name (the CLI's default is 4) must leave the others
   unsharded. *)
let test_registry_shards_only_shard_sharded_families () =
  let module Registry = Onll_baselines.Registry in
  check Alcotest.bool "onll is the bare plain stack" true
    (Registry.family ~shards:4 "onll" = Some Onll_stack.plain);
  check Alcotest.bool "onll-sharded is Sharded 4" true
    (match Registry.family ~shards:4 "onll-sharded" with
    | Some { Onll_stack.top = Direct (Sharded (`Plain, 4)); _ } -> true
    | _ -> false);
  List.iter
    (fun name ->
      match Registry.family ~shards:4 name with
      | Some { Onll_stack.top = Direct (Sharded _) | Txn _; _ } ->
          check Alcotest.bool (name ^ " is a sharded family") true
            (List.mem name [ "onll-sharded"; "onll-txn" ])
      | Some _ | None -> ())
    Registry.names

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters, gauges, histograms" `Quick
            test_metrics_basics;
          Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
        ] );
      ( "sink",
        [
          Alcotest.test_case "null sink is inert" `Quick
            test_null_sink_inactive;
          Alcotest.test_case "folds events, stamps clock" `Quick
            test_sink_folds_and_stamps;
        ] );
      ( "export",
        [
          Alcotest.test_case "json and csv" `Quick test_export_json_and_csv;
          Alcotest.test_case "read_scalars roundtrips json" `Quick
            test_read_scalars_roundtrips_json;
        ] );
      ( "api",
        [
          Alcotest.test_case "Config.make agrees with create" `Quick
            test_config_make_is_deterministic;
          Alcotest.test_case "Snapshot is internally consistent"
            `Quick test_snapshot_is_consistent;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "fence attribution = machine = Thm 5.1" `Quick
            test_fence_attribution_matches_machine;
          Alcotest.test_case "event order across crash/recovery" `Quick
            test_event_order_across_crash_and_recovery;
        ] );
      ( "registry",
        [
          Alcotest.test_case "builds every name" `Quick
            test_registry_builds_every_name;
          Alcotest.test_case "per-impl attribution" `Quick
            test_registry_attribution_per_impl;
          Alcotest.test_case "--shards shards only sharded families" `Quick
            test_registry_shards_only_shard_sharded_families;
        ] );
    ]
