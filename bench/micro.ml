(** E7 — substrate micro-benchmarks (bechamel).

    Nanosecond-scale costs of the building blocks: CRC32, codecs, the RNG,
    execution-trace insertion and traversal, and single-fence log appends
    (with a zero-cost emulated fence, so the number is the software
    overhead a real persistent fence would be added to). *)

open Bechamel
open Toolkit

let make_tests () =
  let data_4k = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let crc =
    Test.make ~name:"crc32 4KiB"
      (Staged.stage (fun () -> ignore (Onll_util.Crc32.string data_4k)))
  in
  let codec =
    let c = Onll_util.Codec.(list (triple int int string)) in
    let v = List.init 8 (fun i -> (i, i * i, "payload")) in
    Test.make ~name:"codec encode+decode (8 envelopes)"
      (Staged.stage (fun () ->
           ignore Onll_util.Codec.(decode c (encode c v))))
  in
  let rng =
    let t = Onll_util.Splitmix.create 1 in
    Test.make ~name:"splitmix next_int64"
      (Staged.stage (fun () -> ignore (Onll_util.Splitmix.next_int64 t)))
  in
  (* Native machine for the shared structures: fences are counted but cost
     zero, so these isolate software overhead. *)
  let native = Onll_machine.Native.create ~max_processes:1 ~fence_ns:0 () in
  let module M = (val Onll_machine.Native.machine native) in
  ignore (Onll_machine.Native.register native);
  let module T = Onll_core.Trace.Make (M) in
  let trace_insert =
    let t = T.create ~base_idx:0 ~base_state:() () in
    Test.make ~name:"trace insert (uncontended)"
      (Staged.stage (fun () ->
           let n = T.insert t 0 in
           T.set_available n))
  in
  let latest_available =
    let t = T.create ~base_idx:0 ~base_state:() () in
    (* a realistic fuzzy suffix: 7 unavailable nodes over an available one *)
    let n0 = T.insert t 0 in
    T.set_available n0;
    for k = 1 to 7 do
      ignore (T.insert t k)
    done;
    Test.make ~name:"latestAvailable (window 7)"
      (Staged.stage (fun () -> ignore (T.latest_available t)))
  in
  let module P = Onll_plog.Plog.Make (M) in
  let plog_append =
    let counter = ref 0 in
    let fresh () =
      incr counter;
      P.create ~name:(Printf.sprintf "bench.plog.%d" !counter)
        ~capacity:(1 lsl 24) ()
    in
    let log = ref (fresh ()) in
    let payload = "12345678payload!" in
    Test.make ~name:"plog append (16B, zero-cost fence)"
      (Staged.stage (fun () ->
           try P.append !log payload
           with Onll_plog.Plog.Full ->
             log := fresh ();
             P.append !log payload))
  in
  Test.make_grouped ~name:"micro" ~fmt:"%s %s"
    [ crc; codec; rng; trace_insert; latest_available; plog_append ]

let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let clock = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ clock ] (make_tests ()) in
  let results = Analyze.all ols clock raw in
  let rows = ref [] in
  let summary = Onll_obs.Metrics.create () in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) ->
            Onll_obs.Metrics.set
              (Onll_obs.Metrics.gauge summary
                 ("ns_per_op."
                 ^ String.map (fun c -> if c = ' ' then '_' else c) name))
              x;
            Onll_util.Table.fmt_float x
        | Some [] | None -> "-"
      in
      rows := [ name; ns ] :: !rows)
    results;
  Onll_util.Table.print
    ~title:"E7 — substrate micro-benchmarks (bechamel, monotonic clock)"
    ~header:[ "operation"; "ns/op" ]
    (List.sort compare !rows);
  let path = Harness.write_snapshot ~experiment:"e7" summary in
  Printf.printf "snapshot: %s\n" path
