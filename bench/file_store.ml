(* E17: the real file-backed store.

   Three arms:

   1. The deterministic crash/fault slices ({!gate_slices}, shared with
      the bench gate): in-process restart scenarios over plain and
      mirrored file stores with seeded kills ([Raise] mode) at, inside
      and around the persistent fence, plus the fsync-EIO
      (retry-then-sticky-degraded), short-write and disk-full arms — all
      counters golden-able.

   2. The fence-cost measurement: the median cost of a real fsync fence
      (store + flush + fence on one region, then the full counter
      update path, plain and mirrored), placed against the simulated
      fence grid E5/E16 sweep (0 / 500 / 2000 ns) — real durability is
      the far end of that axis, which is what makes group commit and
      sharding earn their keep on real media.

   3. The kill -9 campaign: the same restart and media-fault arms with
      every epoch in a forked child that SIGKILLs itself at the seeded
      fence, plain and mirrored.

   Arms 2 and 3 are measurements/campaigns, keyed [e17t.*] / [e17c.*] —
   outside the gate's [e17.] prefix, so wall-clock noise and process
   scheduling never break CI determinism. *)

module Fchaos = Test_support.File_chaos
module Campaign = Test_support.Campaign
module Metrics = Onll_obs.Metrics
module Fmem = Onll_nvm.File_memory
module Fm = Onll_machine.File_machine
module Cs = Onll_specs.Counter

let gate_slices = Fchaos.gate_slices

(* {1 Arm 2: measured fence cost on real media} *)

let fence_grid_ns = [ 0; 500; 2000 ]

let median a =
  Array.sort compare a;
  a.(Array.length a / 2)

let raw_fence_ns () =
  let dir = Test_support.Temp_dir.fresh ~prefix:"onll-e17" in
  let fm = Fmem.create ~dir ~max_processes:1 () in
  let r = Fmem.region fm ~name:"probe" ~size:4096 in
  let samples = 64 in
  let ns = Array.make samples 0 in
  let payload = String.make 64 'x' in
  for i = 0 to samples - 1 do
    Fmem.Region.store r ~proc:0 ~off:(i * 64 mod 4096) payload;
    Fmem.Region.flush r ~proc:0 ~off:(i * 64 mod 4096) ~len:64;
    let t0 = Onll_machine.Native.monotonic_ns () in
    Fmem.fence fm ~proc:0;
    let t1 = Onll_machine.Native.monotonic_ns () in
    ns.(i) <- Int64.to_int (Int64.sub t1 t0)
  done;
  Fmem.close fm;
  Test_support.Temp_dir.rm_rf dir;
  median ns

let update_ns ~replicas =
  let dir = Test_support.Temp_dir.fresh ~prefix:"onll-e17" in
  let fmach = Fm.create ~dir ~max_processes:1 () in
  ignore (Fm.register fmach);
  let module M = (val Fm.machine fmach) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj =
    C.make { Onll_core.Onll.Config.default with log_capacity = 1 lsl 16; replicas }
  in
  let updates = 128 in
  let t0 = Onll_machine.Native.monotonic_ns () in
  for _ = 1 to updates do
    ignore (C.update obj Cs.Increment)
  done;
  let t1 = Onll_machine.Native.monotonic_ns () in
  let pf = M.persistent_fences () in
  Fm.close fmach;
  Test_support.Temp_dir.rm_rf dir;
  (Int64.to_int (Int64.sub t1 t0) / updates, pf, updates)

let fence_timing reg =
  let g name v = Metrics.set (Metrics.gauge reg name) (float_of_int v) in
  let fsync_ns = raw_fence_ns () in
  g "e17t.fence.fsync_ns.p50" fsync_ns;
  List.iter
    (fun grid -> g (Printf.sprintf "e17t.fence.grid_ns.%d" grid) grid)
    fence_grid_ns;
  Printf.printf
    "measured fsync fence: %d ns median — vs the simulated grid {%s} ns \
     (real durability sits %s the far end)\n"
    fsync_ns
    (String.concat ", " (List.map string_of_int fence_grid_ns))
    (if fsync_ns >= List.nth fence_grid_ns (List.length fence_grid_ns - 1)
     then "at or beyond"
     else "inside");
  let plain_ns, pf_plain, updates = update_ns ~replicas:1 in
  let mirr_ns, pf_mirr, _ = update_ns ~replicas:2 in
  g "e17t.update.plain.ns" plain_ns;
  g "e17t.update.mirrored.ns" mirr_ns;
  (* Thm 5.1 on real media: still one persistent fence per update, and
     mirroring still rides the same fence (two files fsynced under it) *)
  Metrics.set
    (Metrics.gauge reg "e17t.update.plain.pf_per_update")
    (float_of_int pf_plain /. float_of_int updates);
  Metrics.set
    (Metrics.gauge reg "e17t.update.mirrored.pf_per_update")
    (float_of_int pf_mirr /. float_of_int updates);
  assert (pf_plain <= updates + 2);
  assert (pf_mirr <= updates + 2);
  Printf.printf
    "counter update on files: plain %d ns/op, mirrored (2 files/fence) %d \
     ns/op; %.2f / %.2f persistent fences per update\n"
    plain_ns mirr_ns
    (float_of_int pf_plain /. float_of_int updates)
    (float_of_int pf_mirr /. float_of_int updates)

(* {1 Arm 3: the kill -9 campaign} *)

let campaign reg =
  let seeds =
    match Sys.getenv_opt "ONLL_E17_SEEDS" with
    | Some s -> int_of_string s
    | None -> 25
  in
  let rows =
    Test_support.Temp_dir.with_fresh ~prefix:"onll-e17" (fun dir ->
        Fchaos.run_campaign ~dir ~seeds ~target:8)
  in
  Fchaos.print_rows rows;
  List.iter
    (fun (r : Campaign.row) ->
      ignore (Campaign.to_metrics ~reg ~prefix:("e17c." ^ r.name) r))
    rows;
  assert (List.for_all (fun (r : Campaign.row) -> r.violations = []) rows);
  assert (Campaign.total "kills" rows > 0)

let run () =
  let reg = Metrics.create () in
  print_endline "== deterministic crash/fault slices (gate material) ==";
  gate_slices reg;
  assert (Metrics.counter_value reg "e17.restart.plain.violations" = 0);
  assert (Metrics.counter_value reg "e17.restart.mirrored.violations" = 0);
  assert (Metrics.counter_value reg "e17.eio.retry.violations" = 0);
  assert (Metrics.counter_value reg "e17.eio.sticky.violations" = 0);
  assert (Metrics.counter_value reg "e17.eio.sticky.degraded" > 0);
  assert (Metrics.counter_value reg "e17.shortw.violations" = 0);
  assert (Metrics.counter_value reg "e17.enospc.violations" = 0);
  print_endline "== fence cost on real media ==";
  fence_timing reg;
  print_endline "== kill -9 campaign (forked epochs) ==";
  campaign reg;
  let path = Harness.write_snapshot ~experiment:"e17" reg in
  Printf.printf "snapshot: %s\n" path
