(** E4 — read cost vs history length: the §8 read acceleration.

    Every trace node publishes the state after it, so a read at a
    published node returns that state and applies nothing: the cost of a
    read does not grow with the history behind it. One curve, on one
    domain, with no checkpoint or prune to shorten the trace; asserted:
    ns per read at history 4,000 within 2x of history 100 (a read that
    folded the trace from its base took ~40x longer there). *)

open Onll_machine
module Cs = Onll_specs.Counter

let histories = [ 100; 500; 1_000; 2_000; 4_000 ]

(* The bound on ns/read at the longest history over the shortest. *)
let max_ratio = 2.

let read_ns ~history =
  let native = Native.create ~max_processes:1 ~fence_ns:0 () in
  let module M = (val Native.machine native) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  ignore (Native.register native);
  let obj =
    C.make { Onll_core.Onll.Config.default with log_capacity = 1 lsl 25 }
  in
  for _ = 1 to history do
    ignore (C.update obj Cs.Increment)
  done;
  let reads = 2_000 in
  ignore (C.read obj Cs.Get);
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reads do
    ignore (C.read obj Cs.Get)
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reads

let run () =
  (* the fastest of three runs per point *)
  let points =
    List.map
      (fun h ->
        ( float_of_int h,
          List.fold_left min infinity
            (List.init 3 (fun _ -> read_ns ~history:h)) ))
      histories
  in
  Onll_util.Table.series
    ~title:"E4 — read latency vs history length (ns/read, counter, 1 domain)"
    ~x_label:"history" [ ("onll", points) ];
  let summary = Onll_obs.Metrics.create () in
  List.iter
    (fun (h, ns) ->
      Onll_obs.Metrics.set
        (Onll_obs.Metrics.gauge summary
           (Printf.sprintf "read_ns.h%d" (int_of_float h)))
        ns)
    points;
  let path = Harness.write_snapshot ~experiment:"e4" summary in
  Printf.printf "snapshot: %s\n" path;
  let at h = List.assoc (float_of_int h) points in
  let ratio = at 4_000 /. at 100 in
  Printf.printf "ns/read at history 4000 / at 100: %.2fx (at most %.1fx)\n"
    ratio max_ratio;
  if ratio > max_ratio then
    failwith
      (Printf.sprintf
         "E4: a read at history 4000 costs %.2fx one at history 100 (at \
          most %.1fx)"
         ratio max_ratio)
