open Onll_machine
open Onll_sched

let check = Alcotest.check

(* The trace is generic in envelopes and base states; tests use int
   envelopes and string base states. *)

(* Each test instantiates its own simulator and trace modules. *)

let test_sentinel () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module T = Onll_core.Trace.Make (M) in
  let t = T.create ~base_idx:0 ~base_state:"init" () in
  let tail = T.tail t in
  check Alcotest.int "sentinel idx" 0 tail.T.idx;
  check Alcotest.bool "sentinel available" true (T.is_available tail);
  check Alcotest.bool "sentinel has no op" true (tail.T.env = None);
  check Alcotest.bool "base" true (T.base_of t = (0, "init"))

let test_insert_assigns_dense_indices () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module T = Onll_core.Trace.Make (M) in
  let t = T.create ~base_idx:0 ~base_state:"init" () in
  let n1 = T.insert t 100 in
  let n2 = T.insert t 200 in
  let n3 = T.insert t 300 in
  check Alcotest.(list int) "indices" [ 1; 2; 3 ] [ n1.T.idx; n2.T.idx; n3.T.idx ];
  check Alcotest.bool "fresh nodes unavailable" true
    (not (T.is_available n1))

let test_insert_respects_base_idx () =
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module T = Onll_core.Trace.Make (M) in
  let t = T.create ~base_idx:41 ~base_state:"mid" () in
  let n = T.insert t 1 in
  check Alcotest.int "continues from base" 42 n.T.idx

let test_latest_available () =
  let sim = Sim.create ~max_processes:4 () in
  let module M = (val Sim.machine sim) in
  let module T = Onll_core.Trace.Make (M) in
  let t = T.create ~base_idx:0 ~base_state:"init" () in
  let n1 = T.insert t 1 in
  let n2 = T.insert t 2 in
  let n3 = T.insert t 3 in
  (* nothing available yet: the sentinel rules *)
  check Alcotest.int "sentinel" 0 (T.latest_available t).T.idx;
  T.set_available n1;
  check Alcotest.int "n1" 1 (T.latest_available t).T.idx;
  (* availability can be set out of order (Figure 2) *)
  T.set_available n3;
  check Alcotest.int "n3 wins" 3 (T.latest_available t).T.idx;
  T.set_available n2;
  check Alcotest.int "still n3" 3 (T.latest_available t).T.idx

let test_fuzzy_envs () =
  let sim = Sim.create ~max_processes:4 () in
  let module M = (val Sim.machine sim) in
  let module T = Onll_core.Trace.Make (M) in
  let t = T.create ~base_idx:0 ~base_state:"init" () in
  let n1 = T.insert t 1 in
  let n2 = T.insert t 2 in
  let n3 = T.insert t 3 in
  ignore n2;
  (* window = everything after the last available node, newest first *)
  check Alcotest.(list int) "all three fuzzy" [ 3; 2; 1 ] (T.fuzzy_envs t n3);
  T.set_available n1;
  check Alcotest.(list int) "window shrinks" [ 3; 2 ] (T.fuzzy_envs t n3);
  T.set_available n3;
  check Alcotest.(list int) "available node: empty window" []
    (T.fuzzy_envs t n3)

let test_fuzzy_window_is_continuous () =
  (* Figure 2: an unavailable node below an available one is NOT fuzzy. *)
  let sim = Sim.create ~max_processes:4 () in
  let module M = (val Sim.machine sim) in
  let module T = Onll_core.Trace.Make (M) in
  let t = T.create ~base_idx:0 ~base_state:"init" () in
  let _n1 = T.insert t 1 in
  let n2 = T.insert t 2 in
  let n3 = T.insert t 3 in
  let n4 = T.insert t 4 in
  T.set_available n2;
  (* n1 unavailable but shielded by n2 *)
  check Alcotest.(list int) "window stops at first available" [ 4; 3 ]
    (T.fuzzy_envs t n4);
  ignore n3

let test_delta_from () =
  let sim = Sim.create ~max_processes:4 () in
  let module M = (val Sim.machine sim) in
  let module T = Onll_core.Trace.Make (M) in
  let t = T.create ~base_idx:0 ~base_state:"init" () in
  let _ = T.insert t 10 in
  let _ = T.insert t 20 in
  let n3 = T.insert t 30 in
  let base, delta = T.delta_from n3 in
  check Alcotest.string "base state" "init" base;
  check Alcotest.(list (pair int int)) "ops ascending"
    [ (1, 10); (2, 20); (3, 30) ]
    delta

(* A fold publishes the state after every node it applies (§8), and
   [delta_from] starts from the newest published one. *)
let test_delta_from_floor () =
  let sim = Sim.create ~max_processes:4 () in
  let module M = (val Sim.machine sim) in
  let module T = Onll_core.Trace.Make (M) in
  let t = T.create ~base_idx:0 ~base_state:"init" () in
  let apply s e = (Printf.sprintf "%s+%d" s e, e) in
  let _ = T.insert t 10 in
  let n2 = T.insert t 20 in
  let n3 = T.insert t 30 in
  check Alcotest.string "the fold" "init+10+20" (T.state_at t n2 ~apply);
  let base, delta = T.delta_from n3 in
  check Alcotest.string "published state used" "init+10+20" base;
  check Alcotest.(list (pair int int)) "only newer ops" [ (3, 30) ] delta;
  check Alcotest.int "its value published" 20
    (T.value_at t n2 ~durable:true ~apply:(fun _ _ -> Alcotest.fail "applied twice"));
  (* published at the node itself: empty delta *)
  ignore (T.state_at t n3 ~apply);
  let base, delta = T.delta_from n3 in
  check Alcotest.string "exact" "init+10+20+30" base;
  check Alcotest.(list (pair int int)) "empty delta" [] delta

let test_to_list () =
  let sim = Sim.create ~max_processes:4 () in
  let module M = (val Sim.machine sim) in
  let module T = Onll_core.Trace.Make (M) in
  let t = T.create ~base_idx:0 ~base_state:"init" () in
  let _ = T.insert t 10 in
  let n2 = T.insert t 20 in
  T.set_available n2;
  let l = T.to_list t in
  check Alcotest.int "3 nodes incl sentinel" 3 (List.length l);
  check
    Alcotest.(list (triple int int (option int)))
    "oldest first with flags"
    Onll_core.Trace_intf.
      [ (0, durable, None); (1, ordered, Some 10); (2, durable, Some 20) ]
    l

(* {1 Concurrent insertion under the scheduler} *)

let test_concurrent_inserts_dense_and_complete () =
  let sim = Sim.create ~max_processes:4 () in
  let module M = (val Sim.machine sim) in
  let module T = Onll_core.Trace.Make (M) in
  let t = T.create ~base_idx:0 ~base_state:"init" () in
  let procs =
    Array.init 4 (fun p ->
        fun _ ->
          for k = 0 to 4 do
            let n = T.insert t ((p * 10) + k) in
            T.set_available n
          done)
  in
  let outcome = Sim.run sim (Sched.Strategy.random ~seed:77) procs in
  check Alcotest.bool "completed" true (outcome = Sched.World.Completed);
  let nodes = T.to_list t in
  check Alcotest.int "20 ops + sentinel" 21 (List.length nodes);
  List.iteri
    (fun i (idx, _, _) -> check Alcotest.int "dense idx" i idx)
    nodes;
  (* every op present exactly once *)
  let envs =
    List.filter_map (fun (_, _, e) -> e) nodes |> List.sort compare
  in
  let expected =
    List.concat_map (fun p -> List.init 5 (fun k -> (p * 10) + k))
      [ 0; 1; 2; 3 ]
    |> List.sort compare
  in
  check Alcotest.(list int) "all ops present once" expected envs

let test_insert_retries_under_contention () =
  (* With several processes racing on the tail CAS, some CAS attempts fail;
     the loop must still insert exactly once per call. Determinism: same
     seed, same final trace. *)
  let run seed =
    let sim = Sim.create ~max_processes:3 () in
    let module M = (val Sim.machine sim) in
    let module T = Onll_core.Trace.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:() () in
    let procs =
      Array.init 3 (fun p ->
          fun _ ->
            for k = 0 to 2 do
              ignore (T.insert t ((p * 10) + k))
            done)
    in
    ignore (Sim.run sim (Sched.Strategy.random ~seed) procs);
    List.filter_map (fun (_, _, e) -> e) (T.to_list t)
  in
  check Alcotest.int "9 inserts" 9 (List.length (run 5));
  check Alcotest.(list int) "deterministic" (run 5) (run 5)

let test_fuzzy_bound_under_random_schedules () =
  (* Proposition 5.2: the fuzzy window never exceeds MAX-PROCESSES when every
     op sets its flag before finishing. Sampled over schedules. *)
  let max_window = ref 0 in
  for seed = 1 to 20 do
    let sim = Sim.create ~max_processes:3 () in
    let module M = (val Sim.machine sim) in
    let module T = Onll_core.Trace.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:() () in
    let procs =
      Array.init 3 (fun p ->
          fun _ ->
            for k = 0 to 3 do
              let n = T.insert t ((p * 10) + k) in
              let window = List.length (T.fuzzy_envs t n) in
              if window > !max_window then max_window := window;
              T.set_available n
            done)
    in
    ignore (Sim.run sim (Sched.Strategy.random ~seed) procs)
  done;
  check Alcotest.bool "window <= MAX_PROCESSES" true (!max_window <= 3);
  check Alcotest.bool "contention observed (window > 1)" true (!max_window > 1)

let () =
  Alcotest.run "trace"
    [
      ( "structure",
        [
          Alcotest.test_case "sentinel" `Quick test_sentinel;
          Alcotest.test_case "dense indices" `Quick
            test_insert_assigns_dense_indices;
          Alcotest.test_case "base idx" `Quick test_insert_respects_base_idx;
          Alcotest.test_case "to_list" `Quick test_to_list;
        ] );
      ( "availability",
        [
          Alcotest.test_case "latest available" `Quick test_latest_available;
          Alcotest.test_case "fuzzy envs" `Quick test_fuzzy_envs;
          Alcotest.test_case "fuzzy window continuous" `Quick
            test_fuzzy_window_is_continuous;
        ] );
      ( "delta",
        [
          Alcotest.test_case "from scratch" `Quick test_delta_from;
          Alcotest.test_case "with floor" `Quick test_delta_from_floor;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "dense and complete" `Quick
            test_concurrent_inserts_dense_and_complete;
          Alcotest.test_case "contention retries" `Quick
            test_insert_retries_under_contention;
          Alcotest.test_case "fuzzy bound (Prop 5.2)" `Quick
            test_fuzzy_bound_under_random_schedules;
        ] );
    ]
