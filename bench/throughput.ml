(** E3 — throughput vs core count, and E5 — throughput vs fence latency.

    The same functorised implementations measured on the native machine:
    real domains, [Atomic] shared variables, persistent fences emulated by
    a busy-wait of configurable duration on the monotonic clock. Expected
    shapes: the non-durable object is the ceiling; ONLL tracks it at one
    emulated fence per update; shadow paging runs at roughly half ONLL's
    rate (two fences and a global lock); flat combining serialises
    everything through one combiner; gaps widen as the fence gets more
    expensive (E5). *)

open Onll_machine
module Cs = Onll_specs.Counter

let available_domains = max 2 (Domain.recommended_domain_count () - 1)

(* Build (name, run) pairs: [run ~domains ~fence_ns ~total_ops] returns
   ops/second for the counter object. *)
let counter_impls : (string * (domains:int -> fence_ns:int -> total_ops:int -> float)) list
    =
  let measure native work =
    let t0 = Unix.gettimeofday () in
    ignore (Native.run_workers native work);
    Unix.gettimeofday () -. t0
  in
  let onll ~domains ~fence_ns ~total_ops =
    let native = Native.create ~max_processes:domains ~fence_ns () in
    let module M = (val Native.machine native) in
    let module C = Onll_core.Onll.Make (M) (Cs) in
    let obj = C.make { Onll_core.Onll.Config.default with log_capacity = (1 lsl 24) } in
    let per = total_ops / domains in
    let elapsed =
      measure native
        (List.init domains (fun _ ->
             fun _ ->
               for _ = 1 to per do
                 ignore (C.update obj Cs.Increment)
               done))
    in
    Harness.ops_per_sec (per * domains) elapsed
  in
  let volatile ~domains ~fence_ns ~total_ops =
    let native = Native.create ~max_processes:domains ~fence_ns () in
    let module M = (val Native.machine native) in
    let module V = Onll_baselines.Volatile.Make (M) (Cs) in
    let obj = V.create () in
    let per = total_ops / domains in
    let elapsed =
      measure native
        (List.init domains (fun _ ->
             fun _ ->
               for _ = 1 to per do
                 ignore (V.update obj Cs.Increment)
               done))
    in
    Harness.ops_per_sec (per * domains) elapsed
  in
  let shadow ~domains ~fence_ns ~total_ops =
    let native = Native.create ~max_processes:domains ~fence_ns () in
    let module M = (val Native.machine native) in
    let module H = Onll_baselines.Shadow.Make (M) (Cs) in
    let obj = H.create () in
    let per = total_ops / domains in
    let elapsed =
      measure native
        (List.init domains (fun _ ->
             fun _ ->
               for _ = 1 to per do
                 ignore (H.update obj Cs.Increment)
               done))
    in
    Harness.ops_per_sec (per * domains) elapsed
  in
  let fc ~domains ~fence_ns ~total_ops =
    let native = Native.create ~max_processes:domains ~fence_ns () in
    let module M = (val Native.machine native) in
    let module F = Onll_baselines.Flat_combining.Make (M) (Cs) in
    let obj = F.create ~log_capacity:(1 lsl 24) () in
    let per = total_ops / domains in
    let elapsed =
      measure native
        (List.init domains (fun _ ->
             fun _ ->
               for _ = 1 to per do
                 ignore (F.update obj Cs.Increment)
               done))
    in
    Harness.ops_per_sec (per * domains) elapsed
  in
  [
    ("volatile", fun ~domains ~fence_ns ~total_ops -> volatile ~domains ~fence_ns ~total_ops);
    ("onll", fun ~domains ~fence_ns ~total_ops -> onll ~domains ~fence_ns ~total_ops);
    ("shadow", fun ~domains ~fence_ns ~total_ops -> shadow ~domains ~fence_ns ~total_ops);
    ("flat-combining", fun ~domains ~fence_ns ~total_ops -> fc ~domains ~fence_ns ~total_ops);
  ]

let queue_impl ~domains ~fence_ns ~total_ops =
  let native = Native.create ~max_processes:domains ~fence_ns () in
  let module M = (val Native.machine native) in
  let module C = Onll_core.Onll.Make (M) (Onll_specs.Queue_spec) in
  let obj = C.make { Onll_core.Onll.Config.default with log_capacity = (1 lsl 24) } in
  let per = total_ops / domains in
  let t0 = Unix.gettimeofday () in
  ignore
    (Native.run_workers native
       (List.init domains (fun d ->
            fun _ ->
              let rng = Onll_util.Splitmix.create (100 + d) in
              for _ = 1 to per do
                ignore (C.update obj (Test_support.Gen.Queue.update rng))
              done)));
  Harness.ops_per_sec (per * domains) (Unix.gettimeofday () -. t0)

(* Record a (name, [(x, mops)]) curve family as [<prefix>.<name>.<x_tag><x>]
   gauges in [summary]. *)
let record_curves summary ~prefix ~x_tag curves =
  List.iter
    (fun (name, points) ->
      List.iter
        (fun (x, mops) ->
          Onll_obs.Metrics.set
            (Onll_obs.Metrics.gauge summary
               (Printf.sprintf "%s.%s.%s%d" prefix name x_tag
                  (int_of_float x)))
            mops)
        points)
    curves

let run_e3 () =
  let total_ops = 40_000 in
  let fence_ns = 500 in
  let domain_counts =
    List.filter (fun d -> d <= available_domains) [ 1; 2; 4; 8 ]
  in
  let curves =
    List.map
      (fun (name, run) ->
        ( name,
          List.map
            (fun d ->
              ( float_of_int d,
                Harness.best_of 3 (fun () ->
                    run ~domains:d ~fence_ns ~total_ops)
                /. 1e6 ))
            domain_counts ))
      counter_impls
  in
  Onll_util.Table.series
    ~title:
      (Printf.sprintf
         "E3a — counter throughput vs domains (Mops/s, fence = %dns, %d ops)"
         fence_ns total_ops)
    ~x_label:"domains" curves;
  (* queue: same shape on a structurally richer object *)
  let qcurves =
    [
      ( "onll",
        List.map
          (fun d ->
            ( float_of_int d,
              queue_impl ~domains:d ~fence_ns
                ~total_ops:20_000
              /. 1e6 ))
          domain_counts );
    ]
  in
  Onll_util.Table.series
    ~title:"E3b — queue throughput vs domains (Mops/s, ONLL, fence = 500ns)"
    ~x_label:"domains" qcurves;
  let summary = Onll_obs.Metrics.create () in
  record_curves summary ~prefix:"mops.counter" ~x_tag:"d" curves;
  record_curves summary ~prefix:"mops.queue" ~x_tag:"d" qcurves;
  let path =
    Harness.write_snapshot ~experiment:"e3"
      ~meta:[ ("fence_ns", string_of_int fence_ns) ]
      summary
  in
  Printf.printf "snapshot: %s\n" path

let run_e5 () =
  let total_ops = 20_000 in
  let domains = min 2 available_domains in
  let latencies = [ 0; 250; 500; 1000; 2000; 5000 ] in
  let curves =
    List.map
      (fun (name, run) ->
        ( name,
          List.map
            (fun ns ->
              ( float_of_int ns,
                Harness.best_of 3 (fun () ->
                    run ~domains ~fence_ns:ns ~total_ops)
                /. 1e6 ))
            latencies ))
      counter_impls
  in
  Onll_util.Table.series
    ~title:
      (Printf.sprintf
         "E5 — counter throughput vs emulated fence latency (Mops/s, %d \
          domains)"
         domains)
    ~x_label:"fence_ns" curves;
  let summary = Onll_obs.Metrics.create () in
  record_curves summary ~prefix:"mops.counter" ~x_tag:"ns" curves;
  let path =
    Harness.write_snapshot ~experiment:"e5"
      ~meta:[ ("domains", string_of_int domains) ]
      summary
  in
  Printf.printf "snapshot: %s\n" path
