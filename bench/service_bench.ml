(* E18: the crash-tolerant network front-end.

   Three arms, mirroring the E17 layout:

   1. The deterministic service crash slices ({!gated}, shared with the
      bench gate): {!Test_support.Service_chaos.e18} — in-process
      restart scenarios driving the protocol state machine
      ([Service.Make.handle]) over file-backed stores with Raise-mode
      kills, plus the policy-surface slice and the dedup slice (an op
      cut at its fence, a restart, compactions, the client's return) —
      all counters golden-able under the [e18.] prefix.

   2. The fault-storm SLO measurement: spawn a real `onll serve` (socket,
      in-memory machine with emulated fences), drive it with the
      open-loop generator at a four-digit client population — beyond
      select(2)'s FD_SETSIZE, which is why the front-end polls — and
      report p50/p99/p999 arrival-to-confirm latency, shed rate, goodput
      and the server's CPU time per confirmed op, keyed [e18t.*] (never
      gated: wall-clock).

   3. The out-of-process campaign ({!Test_support.Service_chaos.e18c}):
      seeded SIGKILL storms, reattach floods with SIGTERM landing
      mid-load, and the degraded-media drill, under one cross-pass
      exactly-once audit, keyed [e18c.*].

   Arms 1 and 3 are asserted on their campaign's verdict. *)

module Schaos = Test_support.Service_chaos
module Loadgen = Onll_serve.Loadgen
module Metrics = Onll_obs.Metrics

let gated = Schaos.e18 ~seeds:3

(* {1 Arm 2: fault-storm SLOs at a 4-digit client population} *)

let env_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

(* The CPU time, user + system, that process [pid] has used so far in
   µs, from /proc/<pid>/stat (fields 14 and 15, in USER_HZ ticks: 100 a
   second on Linux); [None] without a readable /proc. *)
let cpu_us pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> None
  | ic ->
      let line =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
      in
      (* the command name may hold spaces: count from after its ')' *)
      let from = String.rindex line ')' + 2 in
      let fields =
        Array.of_list
          (String.split_on_char ' '
             (String.sub line from (String.length line - from)))
      in
      (* fields.(0) is field 3 *)
      Some
        ((int_of_string fields.(11) + int_of_string fields.(12)) * 10_000)

let slo_pass reg ~worker ~construction =
  let clients = env_int "ONLL_E18_CLIENTS" 1200 in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "onll-e18-slo-%d.sock" (Unix.getpid ()))
  in
  let pid, ic =
    let r, w = Unix.pipe () in
    let pid =
      Unix.create_process worker
        [|
          worker;
          "serve";
          "--socket=" ^ socket;
          "--construction=" ^ construction;
          "--max-conns=" ^ string_of_int (clients + 64);
          "--max-clients=" ^ string_of_int clients;
        |]
        Unix.stdin w Unix.stderr
    in
    Unix.close w;
    (pid, Unix.in_channel_of_descr r)
  in
  (* if an assertion below fires, still reap the worker: an orphaned server
     keeps the pipe (and any CI log tail) open forever *)
  Fun.protect ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()))
  @@ fun () ->
  (match input_line ic with
  | exception End_of_file -> failwith "e18 slo: server died before READY"
  | _ready ->
      let audit = Loadgen.Audit.create () in
      let cfg =
        {
          (Loadgen.default_config ~socket_path:socket) with
          Loadgen.clients;
          rate_hz = 2.;
          duration_ms = 2_000;
          seed = 42;
          deadline_ms = 1_000;
          connect_timeout_ms = 10_000;
        }
      in
      let cpu_before = cpu_us pid in
      let rep = Loadgen.run ~audit cfg in
      let cpu_after = cpu_us pid in
      let g name v =
        Metrics.set
          (Metrics.gauge reg (Printf.sprintf "e18t.%s.%s" construction name))
          v
      in
      g "clients" (float_of_int clients);
      g "confirmed" (float_of_int rep.Loadgen.r_confirmed);
      g "p50_us" (float_of_int rep.Loadgen.r_p50_us);
      g "p99_us" (float_of_int rep.Loadgen.r_p99_us);
      g "p999_us" (float_of_int rep.Loadgen.r_p999_us);
      g "goodput_ops_s" rep.Loadgen.r_goodput;
      g "shed_rate" rep.Loadgen.r_shed_rate;
      Format.printf "e18 slo (%s, %d clients): %a@." construction clients
        Loadgen.pp_report rep;
      (match (cpu_before, cpu_after) with
      | Some t0, Some t1 when rep.Loadgen.r_confirmed > 0 ->
          let per_op =
            float_of_int (t1 - t0) /. float_of_int rep.Loadgen.r_confirmed
          in
          g "server_cpu_us_per_op" per_op;
          Format.printf "e18 slo (%s): server cpu %.1f us per confirmed op@."
            construction per_op
      | _ -> ());
      assert (rep.Loadgen.r_confirmed > 0);
      (* deadline-exhausted clients legitimately end the pass with an op in
         doubt; a quiet re-attach pass must resolve every one of them *)
      if rep.Loadgen.r_unresolved > 0 then begin
        let rep2 = Loadgen.run ~audit { cfg with Loadgen.duration_ms = 0 } in
        Format.printf "e18 slo resolve (%s): %a@." construction
          Loadgen.pp_report rep2;
        assert (rep2.Loadgen.r_unresolved = 0)
      end);
  Unix.kill pid Sys.sigterm;
  let _, st = Unix.waitpid [] pid in
  close_in ic;
  (try Sys.remove socket with Sys_error _ -> ());
  match st with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "e18 slo: server did not drain cleanly"

let slo reg worker =
  List.iter
    (fun construction -> slo_pass reg ~worker ~construction)
    [ "plain"; "batched" ]

(* {1 Arm 3: the fault-storm campaign} *)

let campaign reg worker =
  let seeds = env_int "ONLL_E18_SEEDS" 8 in
  Test_support.Temp_dir.with_fresh ~prefix:"onll-e18" (fun dir ->
      Harness.assert_campaign ~reg (Schaos.e18c ~worker ~dir ~seeds))

let run () =
  let reg = Metrics.create () in
  print_endline "== deterministic service crash slices (gate material) ==";
  Harness.assert_campaign ~reg gated;
  let cli = Harness.onll_cli () in
  print_endline "== fault-storm SLOs over a real socket ==";
  slo reg cli;
  print_endline "== SIGKILL / flood / degraded campaign ==";
  campaign reg cli;
  let path = Harness.write_snapshot ~experiment:"e18" reg in
  Printf.printf "snapshot: %s\n" path
