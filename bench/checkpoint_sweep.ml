(** E11 — checkpoint-interval tuning curve (§8 reclamation ablation).

    E6 compares "no checkpoints" against one interval; this sweep holds the
    history fixed and varies the interval, exposing the §8 trade-off
    directly: frequent checkpoints bound recovery work and log space but
    each costs two extra persistent fences, so total fences rise as the
    interval shrinks. The sweet spot depends on how much post-crash
    downtime an application tolerates. A checkpoint whose record and one
    64 KiB reserve fit in the log's dead prefix restarts the log at its
    front, still in two fences; the sweep counts those restarts. *)

open Onll_machine
module Cs = Onll_specs.Counter

let run_one ~history ~interval =
  let sink = Onll_obs.Sink.make () in
  let sim = Sim.create ~sink ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj =
    C.make { Onll_core.Onll.Config.default with log_capacity = 1 lsl 22; sink }
  in
  let used () =
    List.fold_left
      (fun n (l : Onll_core.Onll.Snapshot.log) -> n + l.used_bytes)
      0 (C.snapshot obj).logs
  in
  let restarts = ref 0 in
  for k = 1 to history do
    ignore (C.update obj Cs.Increment);
    if interval > 0 && k mod interval = 0 then begin
      let before = used () in
      ignore (C.checkpoint obj);
      (* a restart leaves the checkpoint's record alone in the log *)
      if used () < before then incr restarts;
      C.prune obj ~below:((C.snapshot obj).Onll_core.Onll.Snapshot.latest_available_idx)
    end
  done;
  let fences = M.persistent_fences () in
  (* The attributed split must account for every machine fence: H update
     fences plus what the checkpoints paid. *)
  let reg = Onll_obs.Sink.registry sink in
  let ckpt_fences = Onll_obs.Metrics.counter_value reg "fences.checkpoint" in
  assert (
    Onll_obs.Metrics.counter_value reg "fences.update" + ckpt_fences = fences);
  (* Each checkpoint pays exactly its append and its head update, or a
     restart's record and its header switch: one more fence, or a
     checkpoint skipped or repeated, fails here. *)
  let checkpoints = if interval > 0 then history / interval else 0 in
  assert (ckpt_fences = 2 * checkpoints);
  (* The short intervals' dead prefixes (81-byte update records, 2,000 of
     them) reach the record and its 64 KiB reserve: the log restarts. *)
  assert (interval = 0 || interval > 100 || !restarts >= 1);
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  let live =
    List.fold_left (fun a (_, l, _) -> a + l) 0 ((List.map (fun l -> Onll_core.Onll.Snapshot.(l.log_name, l.live_bytes, l.used_bytes)) (C.snapshot obj).Onll_core.Onll.Snapshot.logs))
  in
  let (), dt = Harness.time_it (fun () -> C.recover obj) in
  assert (C.read obj Cs.Get = history);
  (fences, ckpt_fences, !restarts, live, dt *. 1e6)

let run () =
  let history = 2_000 in
  let summary = Onll_obs.Metrics.create () in
  let rows =
    List.map
      (fun interval ->
        let fences, ckpt_fences, restarts, live, rec_us =
          run_one ~history ~interval
        in
        let g name v =
          Onll_obs.Metrics.set
            (Onll_obs.Metrics.gauge summary
               (Printf.sprintf "sweep.%s.i%d" name interval))
            v
        in
        g "pfences" (float_of_int fences);
        g "ckpt_fences" (float_of_int ckpt_fences);
        g "restarts" (float_of_int restarts);
        g "live_bytes" (float_of_int live);
        g "recovery_us" rec_us;
        [
          (if interval = 0 then "none" else string_of_int interval);
          string_of_int fences;
          string_of_int ckpt_fences;
          string_of_int restarts;
          Onll_util.Table.fmt_float
            (float_of_int fences /. float_of_int history);
          string_of_int live;
          Onll_util.Table.fmt_float rec_us;
        ])
      [ 0; 1000; 500; 200; 100; 50; 20 ]
  in
  Onll_util.Table.print
    ~title:
      (Printf.sprintf
         "E11 — checkpoint interval sweep (counter, %d updates, crash, \
          recover; recovered value asserted)"
         history)
    ~header:
      [
        "interval";
        "total pfences";
        "ckpt pfences";
        "restarts";
        "pfences/update";
        "live log bytes";
        "recovery µs";
      ]
    rows;
  let path =
    Harness.write_snapshot ~experiment:"e11"
      ~meta:[ ("history", string_of_int history) ]
      summary
  in
  Printf.printf "snapshot: %s\n" path
