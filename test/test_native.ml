(** Native-machine tests: the same functorised ONLL code running on real
    OCaml 5 domains with [Atomic] shared variables and emulated fence cost.
    These validate that the construction is race-free under true parallelism
    (return values form a permutation, final states are exact) — crash
    testing stays on the simulator. *)

open Onll_machine
module Cs = Onll_specs.Counter

let check = Alcotest.check
let n_domains = max 2 (min 4 (Domain.recommended_domain_count () - 1))

let test_parallel_increments () =
  let native = Native.create ~max_processes:(n_domains + 1) ~fence_ns:0 () in
  let module M = (val Native.machine native) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make { Onll_core.Onll.Config.default with log_capacity = (1 lsl 20) } in
  ignore (Native.register native)  (* the main domain reads at the end *);
  let per_domain = 200 in
  let bodies =
    List.init n_domains (fun _ ->
        fun _ ->
          List.init per_domain (fun _ -> C.update obj Cs.Increment))
  in
  let results = List.concat (Native.run_workers native bodies) in
  let expected = List.init (n_domains * per_domain) (fun i -> i + 1) in
  check
    Alcotest.(list int)
    "increments are a permutation of 1..n" expected
    (List.sort compare results);
  check Alcotest.int "final value" (n_domains * per_domain)
    (C.read obj Cs.Get);
  check Alcotest.int "one persistent fence per update"
    (n_domains * per_domain)
    (M.persistent_fences ())

let test_parallel_mixed_reads () =
  let native = Native.create ~max_processes:(n_domains + 1) ~fence_ns:0 () in
  let module M = (val Native.machine native) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make { Onll_core.Onll.Config.default with log_capacity = (1 lsl 20) } in
  ignore (Native.register native);
  let per_domain = 100 in
  let monotone =
    Native.run_workers native
      (List.init n_domains (fun _ ->
           fun _ ->
             let last = ref (-1) in
             let ok = ref true in
             for _ = 1 to per_domain do
               ignore (C.update obj Cs.Increment);
               let v = C.read obj Cs.Get in
               if v < !last then ok := false;
               last := v
             done;
             !ok))
  in
  check Alcotest.bool "per-domain reads monotone" true
    (List.for_all Fun.id monotone);
  check Alcotest.int "final value" (n_domains * per_domain)
    (C.read obj Cs.Get)

let test_parallel_queue_fifo_per_producer () =
  let native = Native.create ~max_processes:n_domains ~fence_ns:0 () in
  let module M = (val Native.machine native) in
  let module C = Onll_core.Onll.Make (M) (Onll_specs.Queue_spec) in
  let obj = C.make { Onll_core.Onll.Config.default with log_capacity = (1 lsl 20) } in
  let per_domain = 50 in
  (* each producer enqueues p*1000, p*1000+1, ... — per-producer order must
     be preserved in the final queue (FIFO + linearizability) *)
  ignore
    (Native.run_workers native
       (List.init n_domains (fun _ ->
            fun p ->
              for k = 0 to per_domain - 1 do
                ignore
                  (C.update obj (Onll_specs.Queue_spec.Enqueue ((p * 1000) + k)))
              done)));
  let contents = Onll_specs.Queue_spec.to_list (C.current_state obj) in
  check Alcotest.int "all enqueued" (n_domains * per_domain)
    (List.length contents);
  for p = 0 to n_domains - 1 do
    let mine = List.filter (fun x -> x / 1000 = p) contents in
    check
      Alcotest.(list int)
      (Printf.sprintf "producer %d order preserved" p)
      (List.init per_domain (fun k -> (p * 1000) + k))
      mine
  done

let test_native_fence_cost_slows_updates () =
  (* Sanity for the cost model: the same workload takes measurably longer
     with a large fence cost than with none. *)
  let time_with fence_ns =
    let native = Native.create ~max_processes:1 ~fence_ns () in
    let module M = (val Native.machine native) in
    let module C = Onll_core.Onll.Make (M) (Cs) in
    let obj = C.make { Onll_core.Onll.Config.default with log_capacity = (1 lsl 20) } in
    ignore (Native.register native);
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 300 do
      ignore (C.update obj Cs.Increment)
    done;
    Unix.gettimeofday () -. t0
  in
  let fast = time_with 0 in
  let slow = time_with 100_000 (* 100µs per fence: 30ms total minimum *) in
  check Alcotest.bool
    (Printf.sprintf "fenced run slower (%.4fs vs %.4fs)" slow fast)
    true (slow > fast)

let test_parallel_wait_free_increments () =
  (* the Kogan–Petrank trace under true parallelism *)
  let native = Native.create ~max_processes:(n_domains + 1) ~fence_ns:0 () in
  let module M = (val Native.machine native) in
  let module C = Onll_core.Onll.Make_wait_free (M) (Cs) in
  let obj = C.make { Onll_core.Onll.Config.default with log_capacity = (1 lsl 22) } in
  ignore (Native.register native);
  let per_domain = 100 in
  let results =
    List.concat
      (Native.run_workers native
         (List.init n_domains (fun _ ->
              fun _ ->
                List.init per_domain (fun _ -> C.update obj Cs.Increment))))
  in
  check
    Alcotest.(list int)
    "wait-free: permutation"
    (List.init (n_domains * per_domain) (fun i -> i + 1))
    (List.sort compare results);
  check Alcotest.int "one fence per update" (n_domains * per_domain)
    (M.persistent_fences ())

let test_parallel_queue_conservation () =
  (* producers and consumers racing on a native ONLL queue: everything
     dequeued was enqueued, exactly once, and the leftovers account for the
     difference *)
  let native = Native.create ~max_processes:(n_domains + 1) ~fence_ns:0 () in
  let module M = (val Native.machine native) in
  let module C = Onll_core.Onll.Make (M) (Onll_specs.Queue_spec) in
  let obj = C.make { Onll_core.Onll.Config.default with log_capacity = (1 lsl 22) } in
  ignore (Native.register native);
  let producers = n_domains / 2 and consumers = n_domains - (n_domains / 2) in
  let per = 80 in
  let outs =
    Native.run_workers native
      (List.init producers (fun i ->
           fun _ ->
             for k = 0 to per - 1 do
               ignore (C.update obj (Onll_specs.Queue_spec.Enqueue ((i * 1000) + k)))
             done;
             [])
      @ List.init consumers (fun _ ->
            fun _ ->
              List.filter_map
                (fun _ ->
                  match C.update obj Onll_specs.Queue_spec.Dequeue with
                  | Onll_specs.Queue_spec.Taken v -> v
                  | _ -> None)
                (List.init per Fun.id)))
  in
  let taken = List.concat outs in
  let leftover = Onll_specs.Queue_spec.to_list (C.current_state obj) in
  let enqueued = producers * per in
  check Alcotest.int "conservation" enqueued
    (List.length taken + List.length leftover);
  check Alcotest.int "no duplicates" enqueued
    (List.length (List.sort_uniq compare (taken @ leftover)))

let test_native_detectable_ids () =
  let native = Native.create ~max_processes:2 ~fence_ns:0 () in
  let module M = (val Native.machine native) in
  let module C = Onll_core.Onll.Make (M) (Cs) in
  let obj = C.make Onll_core.Onll.Config.default in
  let ids =
    Native.run_workers native
      (List.init 2 (fun _ ->
           fun _ -> fst (C.update_with_id obj Cs.Increment)))
  in
  check Alcotest.int "distinct ids" 2
    (List.length (List.sort_uniq compare ids))

(* A region lives outside the OCaml heap: 64 MiB of it grows the heap by
   less than 1 MiB. It starts zeroed, and its first and last 8 bytes read
   back what was stored, as bytes and as little-endian words. *)
let test_native_region_off_heap () =
  let native = Native.create ~max_processes:1 () in
  let module M = (val Native.machine native) in
  let size = 64 lsl 20 in
  let heap_bytes () = (Gc.quick_stat ()).heap_words * (Sys.word_size / 8) in
  let before = heap_bytes () in
  let r = M.Pm.create ~name:"big" ~size in
  check Alcotest.bool "heap grows by less than 1 MiB" true
    (heap_bytes () - before < 1 lsl 20);
  List.iter
    (fun off ->
      check Alcotest.string "zeroed" (String.make 8 '\000')
        (M.Pm.load r ~off ~len:8);
      M.Pm.store r ~off "\001\002\003\004\005\006\007\008";
      check Alcotest.string "bytes" "\001\002\003\004\005\006\007\008"
        (M.Pm.load r ~off ~len:8);
      check Alcotest.int64 "little-endian word" 0x0807060504030201L
        (M.Pm.load_int64 r ~off);
      M.Pm.store_int64 r ~off (-2L);
      check Alcotest.int64 "word" (-2L) (M.Pm.load_int64 r ~off);
      check Alcotest.string "word bytes" "\254\255\255\255\255\255\255\255"
        (M.Pm.load r ~off ~len:8))
    [ 0; size - 8 ]

(* The process's resident set in bytes ([VmRSS]), where the kernel
   reports one. *)
let vm_rss () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      List.find_map
        (fun line -> Scanf.sscanf_opt line "VmRSS: %d kB" (fun kb -> kb * 1024))
        (String.split_on_char '\n' status)
  | exception Sys_error _ -> None

let mib = 1 lsl 20
let step = Native.populate_step

(* A transparent huge page: a populate of one step may fault in this much
   when the kernel gives such pages to anonymous mappings. *)
let huge_page = 2 * mib

(* A region is made resident as it is written, not at creation: a 64 MiB
   region adds less than 1 MiB to the process's resident set, and 8 MiB
   of sequential 128-byte stores add about 8 MiB (at most one populate
   step and one huge page more). Linux only: elsewhere there is no
   [VmRSS] to read. *)
let test_native_region_populated_as_written () =
  match vm_rss () with
  | None -> Alcotest.skip ()
  | Some before ->
      let native = Native.create ~max_processes:1 () in
      let module M = (val Native.machine native) in
      let r = M.Pm.create ~name:"lazy" ~size:(64 * mib) in
      let created = Option.get (vm_rss ()) in
      check Alcotest.bool
        (Printf.sprintf "creation adds %d KiB < 1 MiB"
           ((created - before) / 1024))
        true
        (created - before < mib);
      check Alcotest.int "no region page resident" 0
        (Native.resident_bytes native);
      let line = String.make 128 'x' in
      for i = 0 to (8 * mib / 128) - 1 do
        M.Pm.store r ~off:(i * 128) line
      done;
      let grown = Option.get (vm_rss ()) - created in
      check Alcotest.bool
        (Printf.sprintf "8 MiB of stores add %d KiB, about 8 MiB"
           (grown / 1024))
        true
        (grown >= (8 * mib) - (mib / 2)
        && grown <= (8 * mib) + step + huge_page + mib);
      let resident = Native.resident_bytes native in
      check Alcotest.bool
        (Printf.sprintf "%d KiB of the region resident, about 8 MiB"
           (resident / 1024))
        true
        (resident >= 8 * mib && resident <= (8 * mib) + step + huge_page);
      check Alcotest.string "the last line reads back" line
        (M.Pm.load r ~off:((8 * mib) - 128) ~len:128)

(* Stores that straddle the populated prefix's end read back whole, a
   store far past it leaves the gap to first touch, and loads past what
   was written read zeros, populating nothing. *)
let test_native_region_straddles () =
  let native = Native.create ~max_processes:1 () in
  let module M = (val Native.machine native) in
  let size = 4 * mib in
  let r = M.Pm.create ~name:"straddle" ~size in
  M.Pm.store r ~off:0 "head";
  (* the populated prefix now ends one step past the last byte stored *)
  let m1 = 4 + step in
  let sixteen = "0123456789abcdef" in
  M.Pm.store r ~off:(m1 - 8) sixteen;
  check Alcotest.string "a store across the mark" sixteen
    (M.Pm.load r ~off:(m1 - 8) ~len:16);
  let m2 = m1 + 8 + step in
  M.Pm.store_int64 r ~off:(m2 - 3) 0x1122334455667788L;
  check Alcotest.int64 "a word across the mark" 0x1122334455667788L
    (M.Pm.load_int64 r ~off:(m2 - 3));
  let m3 = m2 + 5 + step in
  let zeros n = String.make n '\000' in
  check Alcotest.string "past the mark: zeros" (zeros 64)
    (M.Pm.load r ~off:(m3 + 100) ~len:64);
  check Alcotest.string "from the old mark: the word's tail, then zeros"
    ("\x55\x44\x33\x22\x11" ^ zeros 3)
    (M.Pm.load r ~off:m2 ~len:8);
  check Alcotest.string "across the mark: zeros" (zeros 16)
    (M.Pm.load r ~off:(m3 - 8) ~len:16);
  check Alcotest.int64 "a load past the mark reads zero" 0L
    (M.Pm.load_int64 r ~off:(size - 8));
  M.Pm.store r ~off:(3 * mib) "far";
  check Alcotest.string "a store far past the mark" "far"
    (M.Pm.load r ~off:(3 * mib) ~len:3);
  check Alcotest.string "the gap below it reads zeros" (zeros 32)
    (M.Pm.load r ~off:(2 * mib) ~len:32);
  M.Pm.store_int64 r ~off:(size - 8) (-1L);
  check Alcotest.int64 "the region's last word" (-1L)
    (M.Pm.load_int64 r ~off:(size - 8));
  check Alcotest.string "the head is intact" "head" (M.Pm.load r ~off:0 ~len:4)

let () =
  Alcotest.run "native"
    [
      ( "parallel",
        [
          Alcotest.test_case "increments permutation" `Quick
            test_parallel_increments;
          Alcotest.test_case "mixed reads monotone" `Quick
            test_parallel_mixed_reads;
          Alcotest.test_case "queue per-producer fifo" `Quick
            test_parallel_queue_fifo_per_producer;
          Alcotest.test_case "wait-free increments" `Quick
            test_parallel_wait_free_increments;
          Alcotest.test_case "queue conservation" `Quick
            test_parallel_queue_conservation;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "fence cost slows updates" `Slow
            test_native_fence_cost_slows_updates;
        ] );
      ( "detectability",
        [ Alcotest.test_case "ids distinct" `Quick test_native_detectable_ids ]
      );
      ( "regions",
        [
          Alcotest.test_case "off the OCaml heap" `Quick
            test_native_region_off_heap;
          Alcotest.test_case "populated as written" `Quick
            test_native_region_populated_as_written;
          Alcotest.test_case "stores straddle the populated end" `Quick
            test_native_region_straddles;
        ] );
    ]
