(* Theorem 5.1 over every legal layer stack: each value of
   [Onll_stack.legal], and each stack [onll serve] ships, is built through
   the registry's ["onll"] entry and driven on the simulated machine. Solo,
   an update costs exactly one object fence (fewer on the relaxed front,
   once the run outgrows its tail), a session's submission costs
   exactly that one object fence, and reads cost none. Under a random three-process schedule
   an update costs at most one object fence and a read none. *)

open Onll_machine
module Registry = Onll_baselines.Registry
module Gen = Test_support.Gen
module Svc = Onll_serve.Service

let check = Alcotest.check
let solo_updates = 100 (* more than any stack's relaxed tail *)
let concurrent_updates = 25 (* per process: 75 also outgrow every tail *)

(* Every constructor a stack is made of, by an exhaustive match: a new
   constructor does not compile here until [legal] is checked for it. *)
let constructors s =
  let engine = function
    | `Plain -> "Plain"
    | `Wait_free -> "Wait_free"
    | `Batched -> "Batched"
  in
  let front = function
    | Onll_stack.Bare e -> [ "Bare"; engine e ]
    | Onll_stack.Sharded (e, _) -> [ "Sharded"; engine e ]
    | Onll_stack.Relaxed (e, _) -> [ "Relaxed"; engine e ]
  in
  match s.Onll_stack.top with
  | Onll_stack.Direct f -> "Direct" :: front f
  | Onll_stack.Session f -> "Session" :: front f
  | Onll_stack.Txn _ -> [ "Txn" ]

let test_legal_reaches_every_constructor () =
  let shapes = List.sort_uniq compare (List.map constructors Onll_stack.legal) in
  (* 9 engine/front pairs, each direct and under a session, plus txn *)
  check Alcotest.int "every top over every front and engine" 19
    (List.length shapes);
  check Alcotest.bool "mirrored and unmirrored" true
    (List.exists (fun s -> s.Onll_stack.replicas > 1) Onll_stack.legal
    && List.exists (fun s -> s.Onll_stack.replicas = 1) Onll_stack.legal)

let per_op registry ~fences ~ops =
  let f = Onll_obs.Metrics.counter_value registry fences in
  let n = Onll_obs.Metrics.counter_value registry ops in
  if n = 0 then 0. else float_of_int f /. float_of_int n

(* Build [stack] over kv for [procs] processes, run each process through
   [updates] updates and as many reads, and return the sink's registry. *)
let run_stack stack ~procs ~updates ~strategy =
  let rng = Onll_util.Splitmix.create 17 in
  let registry = Onll_obs.Metrics.create () in
  let sink = Onll_obs.Sink.make ~registry () in
  let module R = Registry.Make (Onll_specs.Kv) in
  match
    R.build ~sink
      ~options:
        { Registry.default_options with log_capacity = 1 lsl 18; stack }
      ~max_processes:procs
      ~gen_update:(fun () -> Gen.Kv.update rng)
      ~gen_read:(fun () -> Gen.Kv.read rng)
      "onll"
  with
  | None -> Alcotest.fail "the registry refused a legal stack"
  | Some h ->
      let outcome =
        Sim.run h.Registry.sim strategy
          (Array.init procs (fun _ _ ->
               for _ = 1 to updates do
                 h.Registry.update ();
                 h.Registry.read ()
               done))
      in
      check Alcotest.bool "the run completes" true
        (outcome = Onll_sched.Sched.World.Completed);
      registry

let session = function Onll_stack.Session _ -> true | _ -> false

let solo stack () =
  let r =
    run_stack stack ~procs:1 ~updates:solo_updates
      ~strategy:Onll_sched.Sched.Strategy.round_robin
  in
  let pu = per_op r ~fences:"fences.update" ~ops:"ops.update" in
  (match stack.Onll_stack.top with
  | Onll_stack.Direct (Onll_stack.Relaxed _) ->
      check Alcotest.bool "relaxed: below 1 pf/update, above 0" true
        (pu < 1. && pu > 0.)
  | _ -> check (Alcotest.float 0.) "1 object pf/update" 1. pu);
  check (Alcotest.float 0.) "0 pf/read" 0.
    (per_op r ~fences:"fences.read" ~ops:"ops.read");
  if session stack.Onll_stack.top then begin
    check Alcotest.int "every update was a submission" solo_updates
      (Onll_obs.Metrics.counter_value r "session.ok");
    check (Alcotest.float 0.) "exactly 1 object pf per submit" 1.
      (per_op r ~fences:"fences.update" ~ops:"session.ok");
    check Alcotest.int "0 fences.session" 0
      (Onll_obs.Metrics.counter_value r "fences.session")
  end

let concurrent stack () =
  let r =
    run_stack stack ~procs:3 ~updates:concurrent_updates
      ~strategy:(Onll_sched.Sched.Strategy.random ~seed:5)
  in
  let pu = per_op r ~fences:"fences.update" ~ops:"ops.update" in
  check Alcotest.bool "at most 1 object pf/update" true (pu <= 1. && pu > 0.);
  check (Alcotest.float 0.) "0 pf/read" 0.
    (per_op r ~fences:"fences.read" ~ops:"ops.read")

(* The seam between a session and the relaxed front beneath it. The
   session stack exposes no staleness tier: every update there is an
   exactly-once submission, acknowledged only once durable, and a
   staleness ack is not. And the front's exactly-once path,
   [update_detectable], fences a window that covers every unfenced
   staleness ack below it, or a crash after it would keep the
   exactly-once update and lose an earlier staleness ack — an interior
   operation, not a suffix. *)
let front_of stack =
  match stack.Onll_stack.top with
  | Onll_stack.Session f -> f
  | _ -> invalid_arg "seam: not a session stack"

let seam stack () =
  let front = front_of stack in
  let module Cs = Onll_specs.Counter in
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Cs) in
  let run body =
    check Alcotest.bool "the run completes" true
      (Sim.run sim Onll_sched.Sched.Strategy.round_robin [| body |]
      = Onll_sched.Sched.World.Completed)
  in
  check Alcotest.bool "the session stack exposes no staleness tier" true
    ((B.build stack Onll_core.Onll.Config.default).B.relaxed = None);
  let o =
    B.build
      { stack with top = Onll_stack.Direct front }
      { Onll_core.Onll.Config.default with region_suffix = ".front" }
  in
  let r = Option.get o.B.relaxed in
  run (fun _ ->
      ignore (r.B.update_stale ~budget:8 Cs.Increment);
      (* the staleness ack took the process's first identity, 0 *)
      ignore (o.B.update_detectable ~seq:1 Cs.Increment));
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  ignore (o.B.recover_report ());
  run (fun _ ->
      check Alcotest.int "both acknowledged updates survive" 2
        (o.B.read Cs.Get))

(* The same seam under two processes: p0's detectable updates against
   p1's staleness acks, crashed at a swept step. A staleness ack that
   lands below a detectable update without being drained with it is lost
   in the crash, and the detectable update above that gap with it. *)
let seam_two_procs stack () =
  let front = front_of stack in
  let module Cs = Onll_specs.Counter in
  for seed = 0 to 99 do
    let sim = Sim.create ~max_processes:2 () in
    let module M = (val Sim.machine sim) in
    let module B = Onll_stack.Make (M) (Cs) in
    let o =
      B.build
        { stack with top = Onll_stack.Direct front }
        Onll_core.Onll.Config.default
    in
    let r = Option.get o.B.relaxed in
    let returned = ref [] in
    ignore
      (Sim.run sim
         (Onll_sched.Sched.Strategy.random_with_crash ~seed
            ~crash_at_step:(50 + (37 * seed mod 900)))
         [|
           (fun _ ->
             for seq = 0 to 5 do
               ignore (o.B.update_detectable ~seq Cs.Increment);
               returned := seq :: !returned
             done);
           (fun _ ->
             for _ = 1 to 41 do
               ignore (r.B.update_stale ~budget:8 Cs.Increment)
             done);
         |]
        : Onll_sched.Sched.World.outcome);
    Onll_nvm.Memory.crash (Sim.memory sim)
      ~policy:Onll_nvm.Crash_policy.Drop_all;
    ignore (o.B.recover_report ());
    List.iter
      (fun id_seq ->
        if
          not
            (o.B.was_linearized Cs.Increment
               { Onll_core.Onll.id_proc = 0; id_seq })
        then
          Alcotest.failf "seed %d: returned detectable update %d was lost"
            seed id_seq)
      !returned
  done

(* The optional fields name the shape: [relaxed] is [Some] exactly on a
   direct relaxed front, [txn] exactly on the transaction top. *)
let test_fields_follow_the_shape () =
  let module Cs = Onll_specs.Counter in
  List.iter
    (fun stack ->
      let sim = Sim.create ~max_processes:1 () in
      let module M = (val Sim.machine sim) in
      let module B = Onll_stack.Make (M) (Cs) in
      let o = B.build stack Onll_core.Onll.Config.default in
      let label = Format.asprintf "%a" Onll_stack.pp stack in
      check Alcotest.bool (label ^ ": relaxed") (o.B.relaxed <> None)
        (match stack.Onll_stack.top with
        | Onll_stack.Direct (Onll_stack.Relaxed _) -> true
        | _ -> false);
      check Alcotest.bool (label ^ ": txn") (o.B.txn <> None)
        (match stack.Onll_stack.top with Onll_stack.Txn _ -> true | _ -> false))
    Onll_stack.legal

(* [recovered_ops] names an operation by its shard as well as its id:
   identities and indices are per shard. After a crash every completed
   update comes back on the shard it routed to, and [0] unsharded. *)
let test_recovered_ops_name_the_shard stack () =
  let module Kv = Onll_specs.Kv in
  let sim = Sim.create ~max_processes:1 () in
  let module M = (val Sim.machine sim) in
  let module B = Onll_stack.Make (M) (Kv) in
  let o = B.build stack Onll_core.Onll.Config.default in
  let ops = List.init 12 (fun i -> Kv.Put (Printf.sprintf "key-%d" i, "v")) in
  let ids = ref [] in
  check Alcotest.bool "completed" true
    (Sim.run sim Onll_sched.Sched.Strategy.round_robin
       [|
         (fun _ ->
           List.iteri
             (fun seq op ->
               ignore (o.B.update_detectable ~seq op);
               let id = { Onll_core.Onll.id_proc = M.self (); id_seq = seq } in
               ids := (o.B.shard_of op, id) :: !ids)
             ops);
       |]
    = Onll_sched.Sched.World.Completed);
  Onll_nvm.Memory.crash (Sim.memory sim)
    ~policy:Onll_nvm.Crash_policy.Drop_all;
  ignore (o.B.recover_report ());
  let ro = o.B.recovered_ops () in
  check Alcotest.int "every completed update recovered" (List.length ops)
    (List.length ro);
  List.iter
    (fun (s, id) ->
      check Alcotest.bool "on the shard it routed to" true
        (List.exists (fun (s', id', _) -> s' = s && id' = id) ro))
    !ids;
  let sharded =
    match stack.Onll_stack.top with
    | Onll_stack.Direct (Onll_stack.Sharded _) -> true
    | _ -> false
  in
  check Alcotest.bool "more than one shard" sharded
    (List.length (List.sort_uniq compare (List.map fst !ids)) > 1)

(* The E19 and E20 audits are stack-generic: a small-seed slice of each
   over stacks their own campaigns do not drive (E20's over every
   engine), clean, with the calibration caught on the same stacks (E20's
   on at least half of its seeds). *)
let holds c =
  check Alcotest.(list string) "every requirement holds" []
    (Test_support.Campaign.unmet c)

let relaxed_audit engine () = holds (Test_support.Relaxed_chaos.audit engine)

let txn_audit stack () =
  let module Tc = Test_support.Txn_chaos in
  holds
    (Tc.one ~name:"txn" ~seeds:6 ~calibration_seeds:8
       (Tc.over stack Tc.plan_of_seed))

(* A case's name: the stack's, with the [+views] the mirrored arm of
   [legal] and every served stack carried while they also ran §8 local
   views. Those became one published state per trace node on every stack;
   the cases keep their names. *)
let stack_name ?(served = false) stack =
  Format.asprintf "%a%s" Onll_stack.pp stack
    (if served || stack.Onll_stack.replicas > 1 then " +views" else "")

let cases ?served name stack =
  let label = name ^ stack_name ?served stack in
  [
    Alcotest.test_case (label ^ " solo") `Quick (solo stack);
    Alcotest.test_case (label ^ " 3 procs") `Quick (concurrent stack);
  ]
  @
  match stack.Onll_stack.top with
  | Onll_stack.Session (Onll_stack.Relaxed _) ->
      [ Alcotest.test_case (label ^ " seam") `Quick (seam stack) ]
  | _ -> []

let served =
  List.concat_map
    (fun c ->
      cases ~served:true
        ("serve " ^ Svc.construction_name c ^ ": ")
        (Svc.stack c))
    [ Svc.Plain; Svc.Mirrored; Svc.Sharded; Svc.Batched ]

let () =
  Alcotest.run "stacks"
    [
      ( "legal",
        Alcotest.test_case "reaches every constructor" `Quick
          test_legal_reaches_every_constructor
        :: List.concat_map (cases "") Onll_stack.legal );
      ("served", served);
      (* its own group, so the cases above keep their numbers *)
      ( "seam",
        List.filter_map
          (fun stack ->
            match stack.Onll_stack.top with
            | Onll_stack.Session (Onll_stack.Relaxed _) ->
                Some
                  (Alcotest.test_case
                     (stack_name stack ^ ", 2 procs")
                     `Quick (seam_two_procs stack))
            | _ -> None)
          Onll_stack.legal );
      ( "fields",
        [
          Alcotest.test_case "relaxed and txn follow the shape" `Quick
            test_fields_follow_the_shape;
          Alcotest.test_case "recovered_ops names the shard, unsharded"
            `Quick
            (test_recovered_ops_name_the_shard Onll_stack.plain);
          Alcotest.test_case "recovered_ops names the shard, sharded(4)"
            `Quick
            (test_recovered_ops_name_the_shard
               {
                 Onll_stack.plain with
                 top = Direct (Sharded (`Plain, 4));
               });
        ] );
      ( "audits",
        [
          Alcotest.test_case "E20 relaxed(plain,k)" `Quick
            (relaxed_audit `Plain);
          Alcotest.test_case "E20 relaxed(batched,k)" `Quick
            (relaxed_audit `Batched);
          Alcotest.test_case "E20 relaxed(wait-free,k)" `Quick
            (relaxed_audit `Wait_free);
          Alcotest.test_case "E19 txn(4) x2 +views" `Quick
            (txn_audit { Onll_stack.top = Txn 4; replicas = 2 });
        ] );
    ]
