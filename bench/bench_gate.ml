(** The CI bench-regression gate.

    Re-runs the cheap {e asserted} invariants in-process — E1 fence bounds
    (every onll-family row exactly 1 pf/update, 0 pf/read, ["onll-sharded"]
    and ["onll-session"] included), the F2 fuzzy-window bound, the
    deterministic E14 slices (sharded fence accounting + sharded chaos,
    zero violations), a deterministic E13 mirrored slice (primary-only
    faults must cost nothing), a deterministic E15 session slice
    (exactly-once under crash-fuzz; the naive arm must duplicate) and the
    deterministic E16 slices (group-commit amortisation below 1/2
    pf/update, the solo adversary pinned at exactly 1 pf/update,
    group-commit chaos incl. crash-mid-window over mirrored logs, zero
    violations) — then diffs the freshly produced snapshots against the
    committed goldens in [bench/snapshots/]. Each seeded chaos slice
    (E13, E14, E15, E16, E19, E20) is its campaign value at a small size,
    and every requirement its {!Test_support.Campaign.verdict} names
    unmet is a named failure:

    - [BENCH_e1.json]: every [pf_update.*] / [pf_read.*] key must match
      the golden {e exactly} (the sim is deterministic, so any drift in a
      fence count is a real change in the construction's cost, in either
      direction — cheaper is a claim to re-review, not a free pass);
    - [BENCH_e14.json]: every [e14.*] key (fence accounting, routing,
      chaos violation counters) must match exactly. Native [mops.*]
      gauges are measurements, not invariants — never gated;
    - [BENCH_e13.json] / [BENCH_e15.json] / [BENCH_e16.json] /
      [BENCH_e17.json] / [BENCH_e18.json] / [BENCH_e19.json] /
      [BENCH_e20.json]: every [e13.*] / [e15.*] / [e16.*] / [e17.*] /
      [e18.*] / [e19.*] / [e20.*] key (loss, duplicate, lost-ack,
      violation, fence-amortisation, fault, file-store, service,
      transaction and staleness crash-slice counters of the
      deterministic slices — for e19 that includes the fences-per-txn
      accounting against the 2PC baseline, for e20 the sub-1 relaxed
      fence accounting with its solo-after-quiesce 1/k floor and the
      ops-at-risk histogram) must match exactly — the [e17t.*] /
      [e18t.*] timing and [e17c.*] / [e18c.*] subprocess campaign keys
      live outside the gated prefix on purpose;
    - every committed golden: any key ending in [.violations] must be 0.

    Exit status 0 = gate passes; 1 = regression (each one named on
    stdout). [--self-test] proves the gate can fail: it re-compares
    against a golden with one fence counter bumped, and hands the
    zero-violation rule a golden with one [.violations] key set to 1,
    and requires each to be flagged.

    Usage: [bench_gate.exe [--snapshots DIR] [--self-test] [--regen]]
    (default DIR: [bench/snapshots], resolved from the repo root or
    [$ONLL_GATE_DIR]). [--regen] overwrites the gated goldens (see
    {!gated_experiments}) with the fresh run instead of diffing — review
    the diff before committing it. [--list-gated] prints the gated
    experiment ids and exits; CI's gate-freshness step diffs it against
    [ls bench/snapshots/] so no snapshot can sit there ungated. *)

(* Every experiment with a gated golden in bench/snapshots/. CI's
   gate-freshness step diffs [--list-gated] against the directory listing,
   so a snapshot that exists without being gated here fails the build —
   adding a BENCH_*.json means adding it to this list, which is also the
   list the compare loop below walks. *)
let gated_experiments =
  [ "e1"; "e13"; "e14"; "e15"; "e16"; "e17"; "e18"; "e19"; "e20" ]

let failures = ref []

let faili fmt =
  Printf.ksprintf (fun s -> failures := s :: !failures) fmt

(* Every unmet requirement of a seeded campaign's slice, named. *)
let verdict exp s =
  List.iter
    (fun u -> faili "%s: %s" exp (Test_support.Campaign.describe u))
    (Test_support.Campaign.verdict s)

(* {2 Snapshot comparison} *)

let load path =
  try Some (Onll_obs.Export.read_scalars ~path) with
  | Sys_error e ->
      faili "cannot read snapshot %s: %s" path e;
      None
  | Failure e ->
      faili "cannot parse snapshot %s: %s" path e;
      None

(* Compare [fresh] to [golden] on every key matching [gated]: exact float
   equality (both sides are deterministic sim runs serialised by the same
   exporter), missing and extra gated keys both count. Returns the number
   of gated keys checked. *)
let compare_gated ~label ~gated ~golden ~fresh =
  let g = List.filter (fun (k, _) -> gated k) golden in
  let f = List.filter (fun (k, _) -> gated k) fresh in
  List.iter
    (fun (k, gv) ->
      match List.assoc_opt k f with
      | None -> faili "%s: gated key %s vanished from the fresh run" label k
      | Some fv ->
          if fv <> gv then
            faili "%s: %s changed: golden %.17g, fresh %.17g" label k gv fv)
    g;
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k g) then
        faili
          "%s: new gated key %s is absent from the golden (regenerate \
           bench/snapshots and review the diff)"
          label k)
    f;
  List.length g

let zero_violations ~path metrics =
  List.iter
    (fun (k, v) ->
      let n = String.length k in
      let suffix = ".violations" in
      let sn = String.length suffix in
      if n >= sn && String.sub k (n - sn) sn = suffix && v <> 0. then
        faili "%s: %s = %g (must be 0)" (Filename.basename path) k v)
    metrics

(* {2 Main} *)

let () =
  let snapshots_dir = ref "" in
  let self_test = ref false in
  let regen = ref false in
  let rec parse = function
    | [] -> ()
    | "--snapshots" :: d :: rest ->
        snapshots_dir := d;
        parse rest
    | "--self-test" :: rest ->
        self_test := true;
        parse rest
    | "--regen" :: rest ->
        regen := true;
        parse rest
    | "--list-gated" :: _ ->
        List.iter print_endline gated_experiments;
        exit 0
    | a :: _ ->
        prerr_endline ("bench_gate: unknown argument " ^ a);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let snapshots_dir =
    if !snapshots_dir <> "" then !snapshots_dir
    else
      match Sys.getenv_opt "ONLL_GATE_DIR" with
      | Some d when d <> "" -> d
      | _ ->
          (* dune exec runs from the project root; fall back to the
             source-relative location when run from bench/. *)
          if Sys.file_exists "bench/snapshots" then "bench/snapshots"
          else "snapshots"
  in
  let golden exp =
    Filename.concat snapshots_dir (Printf.sprintf "BENCH_%s.json" exp)
  in
  (* 1. Fresh runs of the asserted invariants, snapshots to a temp dir.
     Any assert inside these is itself a gate failure (uncaught here on
     purpose: the backtrace names the violated invariant). *)
  let tmp = Filename.temp_file "onll-gate" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o755;
  (* the fresh snapshots are kept only when the gate fails *)
  let remove_tmp () =
    Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) (Sys.readdir tmp);
    Sys.rmdir tmp
  in
  Unix.putenv "ONLL_BENCH_DIR" tmp;
  print_endline "bench gate: re-running asserted invariants (sim only)";
  Printf.printf "== E1 fence bounds ==\n%!";
  Fence_audit.run ();
  Printf.printf "== F2 fuzzy-window bound ==\n%!";
  Fuzzy_window.run ();
  Printf.printf "== E14 deterministic slices ==\n%!";
  let e14 = Onll_obs.Metrics.create () in
  Shard_scaling.fence_accounting e14;
  verdict "e14" (Harness.campaign ~reg:e14 Shard_scaling.chaos);
  ignore (Harness.write_snapshot ~experiment:"e14" e14);
  Printf.printf "== E13 deterministic mirrored slice ==\n%!";
  let e13 = Onll_obs.Metrics.create () in
  verdict "e13"
    (Harness.campaign ~reg:e13
       (Test_support.Chaos_harness.e13 ~seeds_per_object:4 ~dual_seeds:3
          ~unmirrored_seeds:3));
  ignore (Harness.write_snapshot ~experiment:"e13" e13);
  Printf.printf "== E15 deterministic session slice ==\n%!";
  let e15 = Onll_obs.Metrics.create () in
  verdict "e15"
    (Harness.campaign ~reg:e15
       (Test_support.Session_chaos.e15 ~seeds_per_arm:6));
  ignore (Harness.write_snapshot ~experiment:"e15" e15);
  Printf.printf "== E16 deterministic slices ==\n%!";
  let e16 = Onll_obs.Metrics.create () in
  Group_commit.amortization e16;
  Group_commit.adversarial e16;
  verdict "e16" (Harness.campaign ~reg:e16 Group_commit.chaos);
  ignore (Harness.write_snapshot ~experiment:"e16" e16);
  Printf.printf "== E17 deterministic file-store crash slices ==\n%!";
  let e17 = Onll_obs.Metrics.create () in
  File_store.gate_slices e17;
  assert (Onll_obs.Metrics.counter_value e17 "e17.restart.plain.violations" = 0);
  assert (
    Onll_obs.Metrics.counter_value e17 "e17.restart.mirrored.violations" = 0);
  assert (Onll_obs.Metrics.counter_value e17 "e17.eio.sticky.degraded" > 0);
  ignore (Harness.write_snapshot ~experiment:"e17" e17);
  Printf.printf "== E18 deterministic service crash slices ==\n%!";
  let e18 = Onll_obs.Metrics.create () in
  Service_bench.gate_slices e18;
  assert (
    Onll_obs.Metrics.counter_value e18 "e18.restart.plain.violations" = 0);
  assert (
    Onll_obs.Metrics.counter_value e18 "e18.restart.mirrored.violations" = 0);
  assert (Onll_obs.Metrics.counter_value e18 "e18.restart.plain.kills" > 0);
  Test_support.Service_chaos.assert_dedup e18;
  ignore (Harness.write_snapshot ~experiment:"e18" e18);
  Printf.printf "== E19 deterministic transaction slices ==\n%!";
  let e19 = Onll_obs.Metrics.create () in
  (* the fence accounting asserts one coordinator fence per txn, at most
     (S+1)/2 of the 2PC baseline's *)
  verdict "e19" (Txn_bench.gate_slices e19);
  ignore (Harness.write_snapshot ~experiment:"e19" e19);
  Printf.printf "== E20 deterministic bounded-staleness slices ==\n%!";
  let e20 = Onll_obs.Metrics.create () in
  (* the fence accounting asserts strictly below 1 pf/update relaxed,
     exactly 1 strict, and the solo-after-quiesce floor of one fence per
     full budget *)
  verdict "e20" (Relaxed_bench.gate_slices e20);
  ignore (Harness.write_snapshot ~experiment:"e20" e20);
  (* [--regen]: adopt the fresh snapshots as the new goldens and stop. *)
  if !regen then begin
    List.iter
      (fun exp ->
        let src = Filename.concat tmp (Printf.sprintf "BENCH_%s.json" exp) in
        let dst = golden exp in
        let ic = open_in_bin src in
        let len = in_channel_length ic in
        let body = really_input_string ic len in
        close_in ic;
        let oc = open_out_bin dst in
        output_string oc body;
        close_out oc;
        Printf.printf "regenerated %s\n" dst)
      gated_experiments;
    print_endline "bench gate: goldens regenerated (review the diff)";
    remove_tmp ();
    exit 0
  end;
  (* 2. Diff fresh vs golden on the gated keys. *)
  let prefixed p k =
    String.length k >= String.length p && String.sub k 0 (String.length p) = p
  in
  List.iter
    (fun exp ->
      let fresh = Filename.concat tmp (Printf.sprintf "BENCH_%s.json" exp) in
      match (load (golden exp), load fresh) with
      | Some g, Some f ->
          let gated =
            if exp = "e1" then fun k ->
              prefixed "pf_update." k || prefixed "pf_read." k
            else prefixed (exp ^ ".")
          in
          let n = compare_gated ~label:exp ~gated ~golden:g ~fresh:f in
          Printf.printf "%s: %d gated keys compared\n" exp n
      | _ -> ())
    gated_experiments;
  (* 3. Every committed golden must carry zero violation counters. *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".json" then
        let path = Filename.concat snapshots_dir name in
        match load path with
        | Some m -> zero_violations ~path m
        | None -> ())
    (try Sys.readdir snapshots_dir with Sys_error _ -> [||]);
  (* 4. Self-test: the gate must be able to fail. Doctor a golden in
     memory, once per rule, and require the rule to flag it: a fence
     counter bumped by one, and a violation counter set to 1. *)
  if !self_test then begin
    let flags what check =
      let before = List.length !failures in
      check ();
      let fresh = List.length !failures - before in
      if fresh > 0 then begin
        (* expected: drop the synthetic failures, record the proof *)
        failures := List.filteri (fun i _ -> i >= fresh) !failures;
        Printf.printf "self-test: %s was caught (the gate can fail)\n" what
      end
      else faili "self-test: %s was NOT caught" what
    in
    let doctor exp f =
      Option.map (List.map (fun (k, v) -> (k, f k v))) (load (golden exp))
    in
    (match doctor "e1" (fun k v ->
         if k = "pf_update.kv.onll-sharded" then v +. 1. else v) with
    | None -> faili "self-test: no e1 golden to perturb"
    | Some bumped ->
        flags "synthetic +1 on pf_update.kv.onll-sharded" (fun () ->
            ignore
              (compare_gated ~label:"self-test" ~gated:(prefixed "pf_")
                 ~golden:bumped
                 ~fresh:(Option.get (load (golden "e1"))))));
    match doctor "e13" (fun k v ->
        if k = "e13.mirrored.kv.violations" then 1. else v) with
    | None -> faili "self-test: no e13 golden to perturb"
    | Some doctored ->
        flags "e13.mirrored.kv.violations set to 1" (fun () ->
            zero_violations ~path:"self-test" doctored)
  end;
  match List.rev !failures with
  | [] ->
      print_endline "bench gate: PASS";
      remove_tmp ();
      exit 0
  | fs ->
      List.iter (fun f -> Printf.printf "bench gate: FAIL: %s\n" f) fs;
      Printf.printf "bench gate: %d regression(s); fresh snapshots in %s\n"
        (List.length fs) tmp;
      exit 1
