(** E21 — the allocation budget of an update and of a read.

    Allocation, unlike wall time, is deterministic on one domain, and it
    decides end-to-end numbers through the GC: a round's major-GC backlog
    moves recovery time, and where a fresh server's first major cycles
    land moves its late ops. This slice counts the minor-heap words one
    operation allocates, per stack, and asserts a ceiling for each.

    Setup: the native machine, one domain, a free fence, a kv object over
    64 keys with the default log capacity (so the count includes the
    compactions a full log runs); 1,000 puts warm the object up, then
    20,000 puts and 20,000 gets are counted. The operations are built
    before counting starts, so the count is the stack's alone. The exact
    counts are printed and written as ungated [e21.*] gauges: a compiler
    change moves them. Then three residency rows (below): what a native
    log holds in RAM, and the live heap, as updates grow with no
    checkpoint, and what a log holds in RAM across rounds of checkpoints
    that restart it at its front. *)

open Onll_machine
module Kv = Onll_specs.Kv

let keys = 64
let warmup = 1_000
let counted = 20_000

(* A stack, the name of its gauges and its ceilings, in words per
   operation. *)
type ceiling = {
  key : string;
  stack : Onll_stack.t;
  update_max : float;
  read_max : float;
}

let plain = Onll_stack.plain
let batched = { Onll_stack.top = Direct (Bare `Batched); replicas = 1 }

(* The layering of serve's exactly-once path: the client table under a
   session, over the relaxed front, over the plain engine. *)
let served = { Onll_stack.top = Session (Relaxed (`Plain, 64)); replicas = 1 }

(* Words per update and per read: plain 156.2 and 4, batched 175.2 and
   4, served 193.7 and 8 (244.7 while a lock ordered the relaxed front).
   Each ceiling is the smaller of its figure plus 10% and the ceiling it
   had when the stacks ran per-process views (plain 200 and 4.4, batched
   188.4 and 4.4, served 264.9 and 8.8). *)
let ceilings =
  [
    { key = "plain"; stack = plain; update_max = 171.8; read_max = 4.4 };
    { key = "batched"; stack = batched; update_max = 188.4; read_max = 4.4 };
    { key = "served"; stack = served; update_max = 213.1; read_max = 8.8 };
  ]

(* Minor-heap words allocated by [f ()]. *)
let words f =
  Gc.minor ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

type sample = { per_update : float; per_read : float }

let measure stack =
  let nat = Native.create ~fence_ns:0 ~max_processes:1 () in
  ignore (Native.register nat);
  let module M = (val Native.machine nat) in
  let module B = Onll_stack.Make (M) (Kv) in
  let obj = B.build stack Onll_core.Onll.Config.default in
  let key i = Printf.sprintf "key%02d" (i mod keys) in
  let puts =
    Array.init (warmup + counted) (fun i ->
        Kv.Put (key (i * 7), string_of_int i))
  in
  let gets = Array.init counted (fun i -> Kv.Get (key (i * 5))) in
  for i = 0 to warmup - 1 do
    ignore (obj.B.update puts.(i) : Kv.value)
  done;
  let w =
    words (fun () ->
        for i = warmup to warmup + counted - 1 do
          ignore (obj.B.update puts.(i) : Kv.value)
        done)
  in
  let r =
    words (fun () ->
        for i = 0 to counted - 1 do
          ignore (obj.B.read gets.(i) : Kv.value)
        done)
  in
  let n = float_of_int counted in
  { per_update = w /. n; per_read = r /. n }

(* {2 Residency}

   Memory that follows what is live, on the native machine: a kv store
   over the same 64 keys on a 64 MiB log, updated with no checkpoint (the
   log never fills, so nothing compacts). Its log region is resident
   only as far as appends reached it: at most the bytes written (the
   header and every record) plus one populate step, to the page. Its
   trace is pruned on its own cadence: the live heap grows from 5k to
   50k updates by at most 4 words an update. What grows is the log's
   in-memory account of its live records, two words a record in
   power-of-two arrays (~2.5 words an update over this span); the trace
   nodes, 32.6 words an update while they lived until a compaction, do
   not. *)
let residency_log = 64 lsl 20

(* the bytes ahead of a log's records in its region *)
let plog_header = 64
let words_per_update_max = 4.0

(* The bytes a store's logs have written, headers included. *)
let extent (s : Onll_core.Onll.Snapshot.t) =
  List.fold_left
    (fun acc (l : Onll_core.Onll.Snapshot.log) ->
      acc + plog_header + l.used_bytes)
    0 s.logs

type residency = {
  written : int;
  resident : int;
  live_5k : int;
  live_50k : int;
  checkpoints : int;
}

let residency () =
  let checkpoints = ref 0 in
  let sink =
    Onll_obs.Sink.make
      ~handler:(fun (e : Onll_obs.Event.t) ->
        match e.Onll_obs.Event.kind with
        | Onll_obs.Event.Checkpoint _ -> incr checkpoints
        | _ -> ())
      ()
  in
  let nat = Native.create ~fence_ns:0 ~max_processes:1 () in
  ignore (Native.register nat);
  let module M = (val Native.machine nat) in
  let module C = Onll_core.Onll.Make (M) (Kv) in
  let obj =
    C.make
      { Onll_core.Onll.Config.default with log_capacity = residency_log; sink }
  in
  let next = ref 0 in
  let live_after n =
    while !next < n do
      let key = Printf.sprintf "key%02d" (!next * 7 mod keys) in
      ignore (C.update obj (Kv.Put (key, string_of_int !next)) : Kv.value);
      incr next
    done;
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let live_5k = live_after 5_000 in
  let live_50k = live_after 50_000 in
  {
    written = extent (C.snapshot obj);
    resident = Native.resident_bytes nat;
    live_5k;
    live_50k;
    checkpoints = !checkpoints;
  }

let page = 4096
let to_page n = (n + page - 1) / page * page
let resident_max r = to_page (r.written + Native.populate_step)

(* {2 Residency across restarts}

   The same kv store on a 64 MiB native log, loaded with 20k puts and
   checkpointed, then [rounds] rounds of 5k puts, each ending in a
   checkpoint + prune. The first round's checkpoint finds the load's
   records dead below the head and restarts the log at its front; from
   then on every other checkpoint does, and the log reuses its front
   instead of growing. So the region stays resident within the first
   generation's extent (its bytes written up to the first round's
   checkpoint) plus one populate step, to the page; a log that only
   moved its head grew by each round's records and checkpoint. *)
let rounds = 8

type restarting = {
  first_extent : int;  (* header and bytes written by the first round *)
  per_round : int list;  (* resident bytes after each round, in order *)
  restarts : int;
}

let restarting () =
  let nat = Native.create ~fence_ns:0 ~max_processes:1 () in
  ignore (Native.register nat);
  let module M = (val Native.machine nat) in
  let module C = Onll_core.Onll.Make (M) (Kv) in
  let obj =
    C.make { Onll_core.Onll.Config.default with log_capacity = residency_log }
  in
  let next = ref 0 in
  let puts n =
    for _ = 1 to n do
      let key = Printf.sprintf "key%02d" (!next * 7 mod keys) in
      ignore (C.update obj (Kv.Put (key, string_of_int !next)) : Kv.value);
      incr next
    done
  in
  let checkpoint () = C.prune obj ~below:(C.checkpoint obj) in
  puts 20_000;
  checkpoint ();
  let first_extent = ref 0 and per_round = ref [] and restarts = ref 0 in
  for r = 1 to rounds do
    puts 5_000;
    let before = extent (C.snapshot obj) in
    if r = 1 then first_extent := before;
    checkpoint ();
    if extent (C.snapshot obj) < before then incr restarts;
    per_round := Native.resident_bytes nat :: !per_round
  done;
  {
    first_extent = !first_extent;
    per_round = List.rev !per_round;
    restarts = !restarts;
  }

let restarting_max r = to_page (r.first_extent + Native.populate_step)

let words_per_update r =
  float_of_int (r.live_50k - r.live_5k) /. 45_000.

let run () =
  let summary = Onll_obs.Metrics.create () in
  let rows =
    List.map
      (fun c ->
        let s = measure c.stack in
        let name = Format.asprintf "%a" Onll_stack.pp c.stack in
        let g what v =
          Onll_obs.Metrics.set
            (Onll_obs.Metrics.gauge summary
               (Printf.sprintf "e21.%s.%s" c.key what))
            v
        in
        g "words_per_update" s.per_update;
        g "words_per_read" s.per_read;
        (c, name, s))
      ceilings
  in
  Onll_util.Table.print
    ~title:
      (Printf.sprintf
         "E21 — minor words per operation (native, one domain, free fence, \
          kv over %d keys, %d puts and gets after %d warm-up puts)"
         keys counted warmup)
    ~header:
      [ "stack"; "words/update"; "ceiling"; "words/read"; "ceiling" ]
    (List.map
       (fun (c, name, s) ->
         [
           name;
           Printf.sprintf "%.1f" s.per_update;
           Printf.sprintf "%.1f" c.update_max;
           Printf.sprintf "%.1f" s.per_read;
           Printf.sprintf "%.1f" c.read_max;
         ])
       rows);
  let r = residency () in
  let g what v =
    Onll_obs.Metrics.set
      (Onll_obs.Metrics.gauge summary ("e21.residency." ^ what))
      (float_of_int v)
  in
  g "written_bytes" r.written;
  g "resident_bytes" r.resident;
  g "live_words_5k" r.live_5k;
  g "live_words_50k" r.live_50k;
  Onll_util.Table.print
    ~title:
      (Printf.sprintf
         "E21 — residency (native, kv over %d keys on a %d MiB log, no \
          checkpoint)"
         keys (residency_log lsr 20))
    ~header:[ "row"; "measured"; "ceiling" ]
    [
      [
        "log region resident (KiB) after 50k puts";
        string_of_int (r.resident / 1024);
        Printf.sprintf "%d (written %d + one %d KiB step)"
          (resident_max r / 1024) (r.written / 1024)
          (Native.populate_step / 1024);
      ];
      [
        "live words 5k -> 50k puts";
        Printf.sprintf "%d -> %d (%.2f/update)" r.live_5k r.live_50k
          (words_per_update r);
        Printf.sprintf "%.1f/update" words_per_update_max;
      ];
    ];
  let rr = restarting () in
  g "restarting.first_extent_bytes" rr.first_extent;
  g "restarting.peak_resident_bytes" (List.fold_left max 0 rr.per_round);
  g "restarting.restarts" rr.restarts;
  Onll_util.Table.print
    ~title:
      (Printf.sprintf
         "E21 — residency across restarts (native, kv over %d keys on a %d \
          MiB log, 20k puts, then %d rounds of 5k puts and a checkpoint + \
          prune; %d checkpoints restarted the log)"
         keys (residency_log lsr 20) rounds rr.restarts)
    ~header:[ "row"; "measured"; "ceiling" ]
    [
      [
        "log region resident (KiB) after each round";
        String.concat " "
          (List.map (fun b -> string_of_int (b / 1024)) rr.per_round);
        Printf.sprintf "%d (first generation %d + one %d KiB step)"
          (restarting_max rr / 1024) (rr.first_extent / 1024)
          (Native.populate_step / 1024);
      ];
    ];
  let path = Harness.write_snapshot ~experiment:"e21" summary in
  Printf.printf "snapshot: %s\n" path;
  if r.checkpoints > 0 then
    failwith
      (Printf.sprintf "E21 residency: %d checkpoints ran" r.checkpoints);
  if r.resident > resident_max r then
    failwith
      (Printf.sprintf
         "E21 residency: %d bytes of the log resident, %d written (at most \
          %d)"
         r.resident r.written (resident_max r));
  List.iteri
    (fun i b ->
      if b > restarting_max rr then
        failwith
          (Printf.sprintf
             "E21 residency across restarts: %d bytes of the log resident \
              after round %d, the first generation wrote %d (at most %d)"
             b (i + 1) rr.first_extent (restarting_max rr)))
    rr.per_round;
  if words_per_update r > words_per_update_max then
    failwith
      (Printf.sprintf
         "E21 residency: the live heap grew %.2f words per update from 5k \
          to 50k puts (at most %.1f)"
         (words_per_update r) words_per_update_max);
  List.iter
    (fun (c, name, s) ->
      if s.per_update > c.update_max || s.per_read > c.read_max then
        failwith
          (Printf.sprintf
             "E21 %s: %.1f words per update (at most %.1f), %.1f per read \
              (at most %.1f)"
             name s.per_update c.update_max s.per_read c.read_max))
    rows
