(** E2 — the lower bound (Theorem 6.3), measured.

    For each implementation and each process count, run the two adversary
    schedules and report what every process had to pay, asserting that no
    ONLL-family stack livelocks. The paper's claim:
    any {e lock-free} durably linearizable implementation shows at least one
    persistent fence per process (ONLL and persist-on-read hit exactly one;
    shadow paging pays two); a non-durable object shows zero (it simply is
    not durable); blocking implementations starve instead of fencing. *)

module Lb = Onll_lowerbound.Lowerbound
module Cs = Onll_specs.Counter
module R = Onll_baselines.Registry.Make (Cs)

let setup impl n =
  match
    R.build ~max_processes:n
      ~gen_update:(fun () -> Cs.Increment)
      ~gen_read:(fun () -> Cs.Get)
      impl
  with
  | Some h -> h
  | None -> invalid_arg ("lower_bound_bench: unknown implementation " ^ impl)

let fence_stats r =
  let a = r.Lb.per_proc_fences in
  (Array.fold_left min max_int a, Array.fold_left max 0 a)

let fence_summary r =
  let mn, mx = fence_stats r in
  if mn = mx then string_of_int mn else Printf.sprintf "%d..%d" mn mx

let outcome_str r =
  match r.Lb.outcome with
  | Lb.Measured -> "measured"
  | Lb.Livelock p -> Printf.sprintf "LIVELOCK (p%d starved)" p
  | Lb.Completed_early -> "completed early"

let run () =
  let summary = Onll_obs.Metrics.create () in
  let record name r =
    let mn, mx = fence_stats r in
    let g suffix v =
      Onll_obs.Metrics.set
        (Onll_obs.Metrics.gauge summary (name ^ suffix))
        (float_of_int v)
    in
    g ".pf_min" mn;
    g ".pf_max" mx
  in
  let runs =
    List.concat_map
      (fun impl ->
        List.map
          (fun n ->
            let open Onll_baselines.Registry in
            let adversary h = Array.init n (fun _ _ -> h.update ()) in
            let h = setup impl n in
            let solo =
              Lb.solo_chain ~max_steps:100_000 h.sim ~procs:(adversary h)
            in
            let h = setup impl n in
            let chain =
              Lb.fence_chain ~max_steps:100_000 h.sim ~procs:(adversary h)
            in
            record (Printf.sprintf "solo.%s.n%d" impl n) solo;
            record (Printf.sprintf "chain.%s.n%d" impl n) chain;
            (impl, n, solo, chain))
          [ 2; 4; 8 ])
      Onll_baselines.Registry.names
  in
  let rows =
    List.map
      (fun (impl, n, solo, chain) ->
        [
          impl;
          string_of_int n;
          fence_summary solo;
          outcome_str solo;
          fence_summary chain;
          outcome_str chain;
          (if Lb.all_at_least_one chain then "yes"
           else
             match chain.Lb.outcome with
             | Lb.Livelock _ -> "n/a (blocks)"
             | _ -> "NO");
        ])
      runs
  in
  Onll_util.Table.print
    ~title:
      "E2 — Theorem 6.3 adversary: persistent fences per process (min..max)"
    ~header:
      [
        "implementation";
        "n";
        "solo-chain pf";
        "solo outcome";
        "fence-chain pf";
        "fence-chain outcome";
        ">=1 fence each";
      ]
    rows;
  (* Every stack the ONLL family builds is lock-free: neither schedule
     starves a process. Each pays at least one fence per process on the
     fence chain (Theorem 6.3), but the relaxed front: buffered
     durability is outside the theorem, so it may read 0. *)
  List.iter
    (fun (impl, n, solo, chain) ->
      if List.mem impl Onll_baselines.Registry.recovery_capable then begin
        let livelock r =
          match r.Lb.outcome with Lb.Livelock _ -> true | _ -> false
        in
        if livelock solo || livelock chain then
          failwith (Printf.sprintf "E2: %s livelocks at n = %d" impl n);
        if impl <> "onll-relaxed" && not (Lb.all_at_least_one chain) then
          failwith
            (Printf.sprintf
               "E2: %s pays fewer than one fence per process on the fence \
                chain at n = %d"
               impl n)
      end)
    runs;
  print_endline
    "(asserted: no ONLL-family stack livelocks under either schedule, and \
     each but onll-relaxed pays at least one fence per process on the \
     fence chain)";
  (* The theorem's unit is fences per update INVOKED: repeat the Case 1
     schedule for k operations per process. *)
  let round_rows =
    List.map
      (fun rounds ->
        let n = 4 in
        let open Onll_baselines.Registry in
        let h = setup "onll" n in
        let procs =
          Array.init n (fun _ _ ->
              for _ = 1 to rounds do
                h.update ()
              done)
        in
        let r = Lb.solo_chain_rounds ~rounds h.sim ~procs in
        record (Printf.sprintf "rounds.onll.k%d" rounds) r;
        [
          string_of_int rounds;
          fence_summary r;
          outcome_str r;
          (if Lb.all_at_least rounds r then "yes" else "NO");
        ])
      [ 1; 2; 4; 8 ]
  in
  Onll_util.Table.print
    ~title:
      "E2b — k updates per process under the repeated Case 1 schedule        (onll, n = 4): k fences each"
    ~header:[ "k"; "pf per process"; "outcome"; ">=k fences each" ]
    round_rows;
  let path = Harness.write_snapshot ~experiment:"e2" summary in
  Printf.printf "snapshot: %s\n" path
