(** Shared helpers for the experiment harness. *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let ops_per_sec total elapsed =
  if elapsed <= 0. then Float.infinity else float_of_int total /. elapsed

(** Best observed rate over [n] repetitions — throughput measurements on a
    shared machine are noisy downwards (interference), so the max is the
    most stable estimator. *)
let best_of n f =
  let best = ref neg_infinity in
  for _ = 1 to n do
    let v = f () in
    if v > !best then best := v
  done;
  !best

(** Write a metrics snapshot for [experiment] (e.g. ["e1"]) as
    [BENCH_<experiment>.json] in [$ONLL_BENCH_DIR] (default: the current
    directory), through the shared {!Onll_obs.Export} JSON exporter.
    [meta] rows are prepended to the snapshot metadata; returns the path
    written. *)
let write_snapshot ~experiment ?(meta = []) registry =
  let dir =
    match Sys.getenv_opt "ONLL_BENCH_DIR" with
    | Some d when d <> "" -> d
    | _ -> "."
  in
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" experiment) in
  let json =
    Onll_obs.Export.json ~meta:(("experiment", experiment) :: meta) registry
  in
  Onll_obs.Export.write_file ~path json;
  path

(** The [onll] CLI binary the socket arms (E18, E20) and E22 start:
    [$ONLL_CLI], else [bin/onll_cli.exe] in the build tree this bench
    runs from ([_build/default/bench/main.exe] sits beside
    [_build/default/bin/]), whatever the working directory.
    @raise Failure naming what to build when neither exists. *)
let onll_cli () =
  match Sys.getenv_opt "ONLL_CLI" with
  | Some p when p <> "" ->
      if Sys.file_exists p then p
      else failwith (Printf.sprintf "$ONLL_CLI=%s does not exist" p)
  | _ ->
      let p =
        Filename.concat
          (Filename.dirname (Filename.dirname Sys.executable_name))
          (Filename.concat "bin" "onll_cli.exe")
      in
      if Sys.file_exists p then p
      else
        failwith
          (Printf.sprintf
             "the socket arms need the onll CLI at %s: build it (dune build \
              bin/onll_cli.exe) or set $ONLL_CLI"
             p)

(** A sim-driven workload: [procs] processes, each performing
    [updates_per_proc] updates (and optionally reads) against closures that
    hide the concrete object. Returns persistent fences consumed. *)
let run_sim_workload sim ~procs ~per_proc ~seed ~(update : int -> unit)
    ~(read : int -> unit) ~read_every =
  let open Onll_machine in
  Sim.reset_stats sim;
  let body p _ =
    for k = 1 to per_proc do
      update p;
      if read_every > 0 && k mod read_every = 0 then read p
    done
  in
  let outcome =
    Sim.run sim
      (Onll_sched.Sched.Strategy.random ~seed)
      (Array.init procs (fun p -> body p))
  in
  assert (outcome = Onll_sched.Sched.World.Completed);
  (Sim.stats sim).Onll_nvm.Memory.Stats.persistent_fences

(** Run a seeded campaign, print it and fold its metrics into [reg]. The
    caller acts on the summary's {!Test_support.Campaign.verdict}. *)
let campaign ?reg c =
  let s = Test_support.Campaign.run c in
  Test_support.Campaign.show s;
  ignore (Test_support.Campaign.metrics ?reg s);
  s

(** {!campaign}, asserting its verdict: each unmet requirement is named
    before the assertion fails, and each one that held is listed. *)
let assert_campaign ?reg c =
  let module C = Test_support.Campaign in
  let s = campaign ?reg c in
  let unmet = C.verdict s in
  List.iter (fun u -> Printf.printf "UNMET: %s\n" (C.describe u)) unmet;
  assert (unmet = []);
  List.iter (Printf.printf "(asserted: %s)\n") (C.held s)

(** An experiment that is one campaign: run and assert it, then write its
    metrics as [BENCH_<experiment>.json]. *)
let campaign_experiment experiment c () =
  let reg = Onll_obs.Metrics.create () in
  assert_campaign ~reg c;
  Printf.printf "snapshot: %s\n" (write_snapshot ~experiment reg)
