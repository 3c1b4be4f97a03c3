(* The benchmark's one command (run.py builds it and passes --onll):

     bench.exe --workload W --seed N --seconds S --trace 0|1 --onll PATH

   runs workload W on inputs drawn from seed N, checks its outputs, and
   prints as the last line of stdout one JSON object: the end-to-end
   metrics with --trace 0, the per-layer metrics of the traced run with
   --trace 1. A run whose check fails reports no metrics and exits 1. *)

open Perfbench_lib

let usage () =
  prerr_endline
    "usage: bench.exe --workload (serve-eo-mem|serve-stale-mem|lib-kv-nvm|serve-eo-file) --seed N \
     --seconds S --trace 0|1 --onll PATH";
  exit 2

let () =
  let t_launch = Stats.now_s () in
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let traced =
    match int "trace" with 0 -> false | 1 -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let serve wl =
    let onll = get "onll" in
    let p = Serve_wl.run_pass ~onll ~wl ~seed ~seconds in
    let t = p.tally in
    Printf.printf "samples: %d updates, %d reads; %d submits shed\n" (Stats.Samples.count t.upd)
      (Stats.Samples.count t.rd) t.shed;
    if wl.tier = Onll_serve.Protocol.T_exactly_once then
      Printf.printf "restarts: %d in-doubt updates found applied, %d never applied\n" p.adopted
        p.dropped
    else Printf.printf "restarts: %d acked updates lost with the staleness tail\n" p.lost;
    if not traced then (t.attempted, t.failed, p.violations, Serve_wl.e2e p)
    else begin
      let sp = Serve_wl.socket_pass ~wl ~seed in
      let rp = Serve_wl.replay ~wl ~stream:(List.rev sp.t_tally.sent_log) in
      let op = Serve_wl.open_pass ~onll ~wl ~seed in
      let late = Stats.Samples.quantile op.late 0.99 in
      if late > Serve_wl.late_flag_us then
        Printf.printf "FLAG generator late: p99 %.0f us over %.0f us; open-loop figures are suspect\n"
          late Serve_wl.late_flag_us;
      ( t.attempted + sp.t_tally.attempted + op.attempted,
        t.failed + sp.t_tally.failed + op.failed,
        p.violations @ sp.t_violations @ List.rev op.errors,
        Serve_wl.per_layer ~untraced:p ~sp ~rp ~op )
    end
  in
  let run () =
    match workload with
    | "lib-kv-nvm" ->
        let r = Kv_wl.run_plain ~seed ~seconds ~t_launch in
        Printf.printf "samples: %d updates, %d reads; %d checkpoints\n"
          (Stats.Samples.count r.updates) (Stats.Samples.count r.reads) r.checkpoints;
        if not traced then
          (r.ops, r.failed, r.violations, Kv_wl.e2e r ~rss:(Stats.peak_rss_mb "self"))
        else
          let tr = Kv_wl.run_traced ~seed ~seconds in
          let coverage = Kv_wl.coverage tr in
          if coverage < Kv_wl.min_coverage then
            Printf.printf "FLAG trace coverage %.3f below %.2f: the spans miss part of the window\n"
              coverage Kv_wl.min_coverage;
          (r.ops + tr.ops, r.failed + tr.failed, r.violations @ tr.violations,
           Kv_wl.per_layer ~untraced:r ~traced:tr)
    | "serve-eo-file" -> serve Serve_wl.eo_file
    | "serve-eo-mem" -> serve Serve_wl.eo_mem
    | "serve-stale-mem" -> serve Serve_wl.stale_mem
    | _ -> usage ()
  in
  let cleanup () =
    Serve_wl.kill_all ();
    Serve_wl.rm_rf Serve_wl.run_dir
  in
  (try Unix.mkdir "perfbench/_run" 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  Unix.mkdir Serve_wl.run_dir 0o755;
  match run () with
  | attempted, failed, violations, metrics ->
      cleanup ();
      List.iter (fun v -> Printf.printf "CHECK FAILED: %s\n" v) violations;
      let correct = violations = [] in
      print_endline (Stats.result_line ~correct ~attempted ~failed metrics);
      exit (if correct then 0 else 1)
  | exception e ->
      cleanup ();
      Printf.eprintf "bench: %s\n" (Printexc.to_string e);
      exit 1
