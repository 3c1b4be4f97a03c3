(** Conformance suite for {!Onll_core.Trace_intf.S}: the same behavioural
    contract checked against both implementations — the paper's lock-free
    backward-linked trace and the Kogan–Petrank-style wait-free trace. Any
    future trace implementation should pass this suite before being plugged
    into [Onll.Make_generic]. *)

open Onll_machine
open Onll_sched

let check = Alcotest.check

module type FACTORY = sig
  val name : string

  module Make (M : Machine_sig.S) : Onll_core.Trace_intf.S
end

module Suite (F : FACTORY) = struct
  let test_base_and_indices () =
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:7 ~base_state:"base" () in
    check Alcotest.bool "base" true (T.base_of t = (7, "base"));
    let n1 = T.insert t "a" in
    let n2 = T.insert t "b" in
    check Alcotest.int "dense from base" 8 (T.idx n1);
    check Alcotest.int "dense" 9 (T.idx n2)

  let test_availability_lifecycle () =
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:() () in
    let n = T.insert t "x" in
    check Alcotest.bool "fresh unavailable" false (T.is_available n);
    T.set_available n;
    check Alcotest.bool "available after set" true (T.is_available n)

  let test_latest_available_out_of_order () =
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:() () in
    let n1 = T.insert t "a" in
    let n3top =
      let _ = T.insert t "b" in
      T.insert t "c"
    in
    check Alcotest.int "sentinel rules" 0 (T.idx (T.latest_available t));
    T.set_available n1;
    check Alcotest.int "n1" 1 (T.idx (T.latest_available t));
    (* flags can be set out of order *)
    T.set_available n3top;
    check Alcotest.int "n3 wins" 3 (T.idx (T.latest_available t))

  let test_fuzzy_contiguous_newest_first () =
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:() () in
    let n1 = T.insert t "a" in
    let _ = T.insert t "b" in
    let n3 = T.insert t "c" in
    check Alcotest.(list string) "full window" [ "c"; "b"; "a" ]
      (T.fuzzy_envs t n3);
    T.set_available n1;
    check Alcotest.(list string) "window shrinks" [ "c"; "b" ]
      (T.fuzzy_envs t n3)

  let test_fuzzy_shielded_still_covers_node () =
    (* Figure 2 continuity: an available node above the target shields
       nothing the persist step needs beyond the target itself. Whatever
       each implementation returns, it must be non-empty, contiguous,
       newest-first, and headed by the target's envelope. *)
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:() () in
    let n1 = T.insert t "a" in
    let n2 = T.insert t "b" in
    T.set_available n2;
    let w = T.fuzzy_envs t n1 in
    check Alcotest.bool "non-empty" true (w <> []);
    check Alcotest.string "headed by the target" "a" (List.hd w)

  (* States are strings: applying an envelope appends it. [applied]
     records what a fold applied. *)
  let apply s e = (s ^ "+" ^ e, e)

  let counting applied s e =
    applied := !applied @ [ e ];
    apply s e

  let test_delta_replay () =
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:"S" () in
    let _ = T.insert t "a" in
    let _ = T.insert t "b" in
    let n3 = T.insert t "c" in
    check Alcotest.string "from the base, ascending" "S+a+b+c"
      (T.state_at t n3 ~apply)

  (* The first fold through a node publishes its state and value; a later
     fold starts from the newest published state, and one at a published
     node applies nothing. *)
  let test_delta_with_floor () =
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:"S" () in
    let n1 = T.insert t "a" in
    T.set_available n1;
    let n2 = T.insert t "b" in
    let n3 = T.insert t "c" in
    check Alcotest.string "published" "S+a" (T.state_at t n1 ~apply);
    let applied = ref [] in
    check Alcotest.string "from the published state" "S+a+b+c"
      (T.state_at t n3 ~apply:(counting applied));
    check Alcotest.(list string) "only newer" [ "b"; "c" ] !applied;
    applied := [];
    check Alcotest.string "published on the way" "b"
      (T.value_at t n2 ~durable:true ~apply:(counting applied));
    check Alcotest.string "at a published node" "S+a+b+c"
      (T.state_at t n3 ~apply:(counting applied));
    check Alcotest.(list string) "nothing applied" [] !applied

  let test_to_list () =
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:() () in
    let n1 = T.insert t "a" in
    let _ = T.insert t "b" in
    T.set_available n1;
    check
      Alcotest.(list (triple int int (option string)))
      "oldest first"
      Onll_core.Trace_intf.
        [ (0, durable, None); (1, durable, Some "a"); (2, ordered, Some "b") ]
      (T.to_list t)

  let test_concurrent_inserts () =
    for seed = 1 to 8 do
      let sim = Sim.create ~max_processes:3 () in
      let module M = (val Sim.machine sim) in
      let module T = F.Make (M) in
      let t = T.create ~base_idx:0 ~base_state:() () in
      let procs =
        Array.init 3 (fun p ->
            fun _ ->
              for k = 0 to 3 do
                let n = T.insert t (Printf.sprintf "p%d.%d" p k) in
                T.set_available n
              done)
      in
      let outcome = Sim.run sim (Sched.Strategy.random ~seed) procs in
      check Alcotest.bool "completed" true (outcome = Sched.World.Completed);
      let nodes = T.to_list t in
      check Alcotest.int "12 ops + sentinel" 13 (List.length nodes);
      List.iteri
        (fun i (idx, _, _) -> check Alcotest.int "dense" i idx)
        nodes;
      let envs =
        List.filter_map (fun (_, _, e) -> e) nodes |> List.sort compare
      in
      check Alcotest.int "all distinct ops present" 12
        (List.length (List.sort_uniq compare envs))
    done

  (* {2 Pruning (§8)} A pruned wait-free trace starts at a fresh
     sentinel, the backward one at its oldest kept node: the two agree on
     the operations, the entries that carry an envelope. *)

  let test_prune () =
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:"s0" () in
    let nodes = List.map (T.insert t) [ "a"; "b"; "c" ] in
    List.iter T.set_available nodes;
    (* the state before a node: its base plus the operations up to it *)
    let state_before node = T.state_at t node ~apply in
    T.prune t ~below:2 ~state_before;
    check Alcotest.bool "base moved" true (T.base_of t = (1, "s0+a"));
    check
      Alcotest.(list (triple int int (option string)))
      "operations kept"
      Onll_core.Trace_intf.[ (2, durable, Some "b"); (3, durable, Some "c") ]
      (List.filter (fun (_, _, e) -> e <> None) (T.to_list t));
    let applied = ref [] in
    check Alcotest.string "from the pruned base" "s0+a+b+c"
      (T.state_at t (List.nth nodes 2) ~apply:(counting applied));
    check Alcotest.(list string) "remaining ops" [ "b"; "c" ] !applied;
    T.prune t ~below:2 ~state_before;
    check Alcotest.bool "idempotent" true (T.base_of t = (1, "s0+a"))

  let test_prune_errors () =
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:"s0" () in
    let n1 = T.insert t "a" in
    let _ = T.insert t "b" in
    T.set_available n1;
    let raises below =
      match T.prune t ~below ~state_before:(fun _ -> "x") with
      | exception Invalid_argument _ -> true
      | () -> false
    in
    check Alcotest.bool "unavailable node rejected" true (raises 2);
    check Alcotest.bool "index past the tail rejected" true (raises 7);
    check Alcotest.bool "nothing pruned" true (T.base_of t = (0, "s0"))

  let test_prune_below_base_noop () =
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:"s0" () in
    let nodes = List.map (T.insert t) [ "a"; "b"; "c"; "d" ] in
    (* the first node is left unavailable: a no-op does not look at it *)
    List.iter T.set_available (List.tl nodes);
    T.prune t ~below:1 ~state_before:(fun _ -> "x");
    check Alcotest.bool "at the initial base" true (T.base_of t = (0, "s0"));
    T.prune t ~below:3 ~state_before:(fun _ -> "s2");
    List.iter
      (fun below ->
        T.prune t ~below ~state_before:(fun _ -> "x");
        check Alcotest.bool
          (Printf.sprintf "prune below %d is a no-op" below)
          true
          (T.base_of t = (2, "s2")))
      [ 3; 2; 1; 0 ]

  let test_node_passed_by_prune () =
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:"S" () in
    let nodes = List.map (T.insert t) [ "a"; "b"; "c"; "d" ] in
    let n2 = List.nth nodes 1 in
    T.set_available (List.hd nodes);
    T.set_available n2;
    let latest = T.latest_available t in
    List.iter T.set_available nodes;
    T.prune t ~below:4 ~state_before:(fun _ -> "S+a+b+c");
    (* from the base each node was obtained under: the new one is past it *)
    let expect what node applies =
      let applied = ref [] in
      check Alcotest.string (what ^ ": state") "S+a+b"
        (T.state_at t node ~apply:(counting applied));
      check Alcotest.(list string) (what ^ ": applied") applies !applied
    in
    expect "an inserted node" n2 [ "a"; "b" ];
    expect "a latest-available node" latest [];
    check Alcotest.int "the latest-available node" 2 (T.idx latest)

  (* A compaction makes its checkpoint's node the base, with the state
     the checkpoint holds; the operations above it still fold from it. *)
  let test_rebase () =
    let sim = Sim.create ~max_processes:4 () in
    let module M = (val Sim.machine sim) in
    let module T = F.Make (M) in
    let t = T.create ~base_idx:0 ~base_state:"S" () in
    let nodes = List.map (T.insert t) [ "a"; "b"; "c" ] in
    List.iter T.set_available nodes;
    T.rebase t (List.nth nodes 1) "S+a+b";
    check Alcotest.bool "base at the node" true (T.base_of t = (2, "S+a+b"));
    let applied = ref [] in
    check Alcotest.string "from the base" "S+a+b+c"
      (T.state_at t (List.nth nodes 2) ~apply:(counting applied));
    check Alcotest.(list string) "only above it" [ "c" ] !applied;
    T.rebase t (List.hd nodes) "S+a";
    check Alcotest.bool "an older node: no-op" true
      (T.base_of t = (2, "S+a+b"));
    T.prune t ~below:3 ~state_before:(fun _ -> "x");
    check Alcotest.bool "a prune at the base: no-op" true
      (T.base_of t = (2, "S+a+b"))

  let tests =
    [
      Alcotest.test_case (F.name ^ ": base and indices") `Quick
        test_base_and_indices;
      Alcotest.test_case (F.name ^ ": availability") `Quick
        test_availability_lifecycle;
      Alcotest.test_case (F.name ^ ": latest available") `Quick
        test_latest_available_out_of_order;
      Alcotest.test_case (F.name ^ ": fuzzy window") `Quick
        test_fuzzy_contiguous_newest_first;
      Alcotest.test_case (F.name ^ ": fuzzy shielded") `Quick
        test_fuzzy_shielded_still_covers_node;
      Alcotest.test_case (F.name ^ ": delta replay") `Quick test_delta_replay;
      Alcotest.test_case (F.name ^ ": delta floor") `Quick
        test_delta_with_floor;
      Alcotest.test_case (F.name ^ ": to_list") `Quick test_to_list;
      Alcotest.test_case (F.name ^ ": concurrent inserts") `Quick
        test_concurrent_inserts;
      Alcotest.test_case (F.name ^ ": prune") `Quick test_prune;
      Alcotest.test_case (F.name ^ ": prune errors") `Quick test_prune_errors;
      Alcotest.test_case (F.name ^ ": prune below the base") `Quick
        test_prune_below_base_noop;
      Alcotest.test_case (F.name ^ ": a node a prune passed") `Quick
        test_node_passed_by_prune;
      Alcotest.test_case (F.name ^ ": rebase") `Quick test_rebase;
    ]
end

module Backward_suite = Suite (struct
  let name = "backward"

  module Make = Onll_core.Trace.Make
end)

module Wf_suite = Suite (struct
  let name = "wait-free"

  module Make = Onll_core.Wf_trace.Make
end)

(* {1 Model-based properties}

   A trace is, logically, just the list of inserted envelopes plus a set of
   available indices. Replay a random command sequence against both the
   implementation and that trivial model and compare every observation. *)

module Props (F : FACTORY) = struct
  let qcheck = QCheck_alcotest.to_alcotest

  let prop_matches_model =
    qcheck
      (QCheck.Test.make
         ~name:(F.name ^ " trace matches the list model")
         ~count:120 QCheck.small_nat
         (fun seed ->
           let rng = Onll_util.Splitmix.create seed in
           let sim = Sim.create ~max_processes:1 () in
           let module M = (val Sim.machine sim) in
           let module T = F.Make (M) in
           let t = T.create ~base_idx:0 ~base_state:"B" () in
           (* model: envelopes by index; available set *)
           let envs = ref [] in  (* newest first: (idx, env) *)
           let avail = ref [ 0 ] in
           let nodes = Hashtbl.create 16 in
           let ok = ref true in
           let expect name c = if not c then (ok := false; ignore name) in
           for step = 1 to 25 do
             match Onll_util.Splitmix.int rng 4 with
             | 0 | 1 ->
                 (* insert *)
                 let e = Printf.sprintf "e%d" step in
                 let n = T.insert t e in
                 let idx = List.length !envs + 1 in
                 expect "idx" (T.idx n = idx);
                 envs := (idx, e) :: !envs;
                 Hashtbl.replace nodes idx n
             | 2 ->
                 (* make a random unavailable node available *)
                 let unavailable =
                   Hashtbl.fold
                     (fun i n acc ->
                       if T.is_available n then acc else (i, n) :: acc)
                     nodes []
                 in
                 if unavailable <> [] then begin
                   let _, n = Onll_util.Splitmix.pick rng unavailable in
                   T.set_available n;
                   avail := T.idx n :: !avail
                 end
             | _ ->
                 (* observations *)
                 let latest = T.latest_available t in
                 let model_latest =
                   List.fold_left max 0 !avail
                 in
                 expect "latest available" (T.idx latest = model_latest);
                 let apply s e = (s ^ "+" ^ e, e) in
                 let state =
                   match Hashtbl.fold (fun i n acc ->
                             match acc with
                             | Some (j, _) when j >= i -> acc
                             | _ -> Some (i, n)) nodes None
                   with
                   | Some (_, newest) -> T.state_at t newest ~apply
                   | None -> T.state_at t latest ~apply
                 in
                 (* the state at the newest node covers everything, however
                    much earlier folds published *)
                 expect "replay"
                   (state
                   = List.fold_left
                       (fun s (_, e) -> fst (apply s e))
                       "B" (List.rev !envs))
           done;
           (* final full check *)
           let listing = T.to_list t in
           let model_listing =
             (0, Onll_core.Trace_intf.durable, None)
             :: List.rev_map
                  (fun (i, e) ->
                    ( i,
                      Onll_core.Trace_intf.(
                        if List.mem i !avail then durable else ordered),
                      Some e ))
                  !envs
           in
           expect "to_list" (listing = model_listing);
           !ok))

  let tests = [ prop_matches_model ]
end

module Backward_props = Props (struct
  let name = "backward"

  module Make = Onll_core.Trace.Make
end)

module Wf_props = Props (struct
  let name = "wait-free"

  module Make = Onll_core.Wf_trace.Make
end)

let () =
  Alcotest.run "trace-conformance"
    [
      ("backward (Listing 2)", Backward_suite.tests);
      ("wait-free (Kogan-Petrank)", Wf_suite.tests);
      ("model-based properties", Backward_props.tests @ Wf_props.tests);
    ]
