(* The compaction property (Test_support.Compaction) on its tier-1 slice:
   counter and kv over 50 keys, ten log capacities' worth of updates, on
   every engine. The full grid — four specifications, four key counts,
   fifty capacities — runs in the soak target. Then the heap of a
   wait-free object with an idle process, and every legal stack over
   kv-50 absorbing ten capacities' worth with no explicit checkpoint. *)

module P = Test_support.Compaction

let property engine w () =
  match P.run ~capacities:10 engine w with
  | () -> ()
  | exception Failure msg -> Alcotest.fail msg

(* The heap half on the wait-free engine: with process 0 idle after one
   update (and, in the [+views] case, one read: the state it computed is
   its view of the object), the live heap after 10k more stays within
   1.5x of the heap after 2k. Anything that pins the idle process's node
   grows it by ~19 words an update. *)
let idle_heap reads () =
  match P.idle_wait_free_live_words ~reads [ 2_000; 10_000 ] with
  | [ at_2k; at_10k ] ->
      if 2 * at_10k > 3 * at_2k then
        Alcotest.failf "%d live words after 10k updates, %d after 2k" at_10k
          at_2k
  | _ -> assert false

let test_every_stack () =
  let w = P.kv 50 in
  List.iter
    (fun stack ->
      let sim = Onll_machine.Sim.create ~max_processes:2 () in
      let module M = (val Onll_machine.Sim.machine sim) in
      let module B = Onll_stack.Make (M) (Onll_specs.Kv) in
      let capacity = P.log_capacity w ~procs:2 in
      let o =
        B.build stack
          { Onll_core.Onll.Config.default with log_capacity = capacity }
      in
      let shards =
        match stack.Onll_stack.top with
        | Onll_stack.Direct (Onll_stack.Sharded (_, n))
        | Onll_stack.Session (Onll_stack.Sharded (_, n))
        | Onll_stack.Txn n ->
            n
        | _ -> 1
      in
      (* a kv Put record takes over 64 bytes *)
      let per_proc = 10 * capacity * shards / 64 / 2 in
      let body p =
        for k = 0 to per_proc - 1 do
          match o.B.update (P.kv_put 50 ((2 * k) + p)) with
          | _ -> ()
          | exception Onll_core.Onll.Log_full log ->
              Alcotest.failf "%s: Log_full on %s after %d updates"
                (Format.asprintf "%a" Onll_stack.pp stack)
                log k
        done
      in
      match
        Onll_machine.Sim.run sim Onll_sched.Sched.Strategy.round_robin
          [| body; body |]
      with
      | Onll_sched.Sched.World.Completed -> ()
      | _ ->
          Alcotest.failf "%s did not complete"
            (Format.asprintf "%a" Onll_stack.pp stack))
    Onll_stack.legal

let () =
  Alcotest.run "compaction"
    [
      ( "property",
        List.concat_map
          (fun engine ->
            List.map
              (fun w ->
                Alcotest.test_case
                  (Printf.sprintf "%s %s" (P.engine_name engine)
                     (P.workload_name w))
                  `Quick (property engine w))
              [ P.counter; P.kv 50 ])
          P.engines );
      ( "heap",
        [
          Alcotest.test_case "wait-free, an idle process" `Quick
            (idle_heap false);
          Alcotest.test_case "wait-free+views, an idle process" `Quick
            (idle_heap true);
        ] );
      ( "stacks",
        [
          Alcotest.test_case "every legal stack over kv-50" `Quick
            test_every_stack;
        ] );
    ]
