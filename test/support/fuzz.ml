(** Generic crash-fuzz driver: run a randomized concurrent workload against
    an ONLL object under a seeded random schedule, optionally crash it
    mid-flight, recover, keep going — then audit everything we know must
    hold:

    - {b durability of completed operations}: every update that responded
      before the crash is in the recovered history (detectability audit);
    - {b precedence}: the recovered execution order extends the real-time
      order of the recorded history;
    - {b durable linearizability}: for small histories, the exhaustive
      {!Onll_histcheck} oracle validates recorded return values across the
      crash.

    Every run is reproducible from its integer seed. *)

open Onll_util

type plan = {
  seed : int;
  n_procs : int;
  ops_per_proc : int;
  read_ratio : float;  (** probability an operation is a read *)
  crash_at : int option;  (** scheduler step of the crash, if any *)
  use_pct : bool;
      (** schedule with PCT (depth 3) instead of uniform random *)
  policy : Onll_nvm.Crash_policy.t;
  stack : Onll_stack.t;
      (** the object under test, a bare stack: the precedence audit
          compares execution indices across every identity, so one index
          space ([`Wait_free] is the Kogan–Petrank trace of §8) *)
}

let default_plan =
  {
    seed = 1;
    n_procs = 3;
    ops_per_proc = 3;
    read_ratio = 0.3;
    crash_at = None;
    use_pct = false;
    policy = Onll_nvm.Crash_policy.Drop_all;
    stack = Onll_stack.plain;
  }

type result = {
  crashed : bool;
  verdict : string option;  (** checker verdict, when run *)
  verdict_ok : bool;  (** true when the checker passed or was skipped *)
  failures : string list;  (** audit failures; empty = pass *)
}

module Make (S : Onll_core.Spec.S) = struct
  module H = Onll_histcheck.Histcheck.Make (S)

  let run ~plan ~gen_update ~gen_read () =
    let w = Crash_world.create ~n_procs:plan.n_procs ~policy:plan.policy in
    let module M = (val Crash_world.machine w) in
    let module B = Onll_stack.Make (M) (S) in
    let obj = B.build plan.stack (Crash_world.config w) in
    let recorder = H.Recorder.create () in
    (* (uid, op_id, op) of updates, as they are invoked / as they respond.
       Mutated from inside simulated processes — plain refs, not shared
       variables, so the mutation is not a scheduling point. *)
    let invoked = ref [] in
    let completed = ref [] in
    let read p rng =
      let rop = gen_read rng in
      let uid = H.Recorder.invoke recorder ~proc:p (H.Read rop) in
      H.Recorder.return_ recorder uid (obj.B.read rop)
    in
    let mk_proc p _ =
      let rng = Splitmix.create ((plan.seed * 1_000_003) + p) in
      let seq = ref 0 in
      for _ = 1 to plan.ops_per_proc do
        if Splitmix.float rng 1.0 < plan.read_ratio then read p rng
        else begin
          let op = gen_update rng in
          let uid = H.Recorder.invoke recorder ~proc:p (H.Update op) in
          let id = { Onll_core.Onll.id_proc = p; id_seq = !seq } in
          invoked := (uid, id, op) :: !invoked;
          let v = obj.B.update_detectable ~seq:!seq op in
          incr seq;
          H.Recorder.return_ recorder uid v;
          completed := (uid, id, op) :: !completed
        end
      done
    in
    let base =
      if plan.use_pct then
        Some
          (Onll_sched.Sched.Strategy.pct ~seed:plan.seed ~depth:3
             ~expected_steps:(plan.n_procs * plan.ops_per_proc * 30))
      else None
    in
    let crashed =
      Crash_world.run_to_crash ?base w ~seed:plan.seed
        ~crash_at:(Option.value plan.crash_at ~default:max_int)
        (Array.init plan.n_procs (fun p -> mk_proc p))
    in
    let fail fmt = Crash_world.fail w fmt in
    if crashed then begin
      H.Recorder.crash recorder;
      Onll_core.Onll.Recovery_report.check (obj.B.recover_report ());
      (* Audit 1: completed updates survive. *)
      List.iter
        (fun (_, id, op) ->
          if not (obj.B.was_linearized op id) then
            fail "completed update %a lost by recovery"
              Onll_core.Onll.pp_op_id id)
        !completed;
      (* Audit 2: recovered order extends real-time precedence. *)
      let times = Hashtbl.create 32 in
      List.iteri
        (fun pos ev ->
          match ev with
          | H.Invoke { uid; _ } -> Hashtbl.replace times uid (pos, max_int)
          | H.Return { uid; _ } ->
              let inv, _ = Hashtbl.find times uid in
              Hashtbl.replace times uid (inv, pos)
          | H.Crash -> ())
        (H.Recorder.history recorder);
      let recovered_idx = Hashtbl.create 32 in
      List.iter
        (fun (_, id, idx) -> Hashtbl.replace recovered_idx id idx)
        (obj.B.recovered_ops ());
      List.iter
        (fun (uid1, id1, _) ->
          List.iter
            (fun (uid2, id2, _) ->
              match
                ( Hashtbl.find_opt times uid1,
                  Hashtbl.find_opt times uid2,
                  Hashtbl.find_opt recovered_idx id1,
                  Hashtbl.find_opt recovered_idx id2 )
              with
              | Some (_, ret1), Some (inv2, _), Some i1, Some i2
                when ret1 < inv2 && i1 >= i2 ->
                  fail "recovered order violates precedence: %a (idx %d) \
                        returned before %a (idx %d) was invoked"
                    Onll_core.Onll.pp_op_id id1 i1 Onll_core.Onll.pp_op_id
                    id2 i2
              | _ -> ())
            !invoked)
        !invoked;
      (* Post-crash era: a single fresh process exercises the recovered
         object; its recorded values let the checker validate durability. *)
      Crash_world.post_era w ~seed:plan.seed ~ops:2 ~read:(read 0)
        ~update:(fun rng ->
          let op = gen_update rng in
          let uid = H.Recorder.invoke recorder ~proc:0 (H.Update op) in
          H.Recorder.return_ recorder uid (obj.B.update op))
    end;
    let history = H.Recorder.history recorder in
    let total_ops =
      List.length
        (List.filter (function H.Invoke _ -> true | _ -> false) history)
    in
    let verdict, verdict_ok =
      if total_ops <= 14 then
        match H.check history with
        | H.Durably_linearizable w as v ->
            (* cross-check the searcher with the independent validator *)
            (match H.validate_witness history w with
            | Ok () -> (Some (Format.asprintf "%a" H.pp_verdict v), true)
            | Error m ->
                (Some ("witness failed validation: " ^ m), false))
        | H.Budget_exhausted as v ->
            (Some (Format.asprintf "%a" H.pp_verdict v), true)
        | H.Violation _ as v ->
            (Some (Format.asprintf "%a" H.pp_verdict v), false)
      else (None, true)
    in
    {
      crashed;
      verdict;
      verdict_ok;
      failures = Crash_world.violations w;
    }
end

(* {1 E8} *)

(* The E8 grid: every knob a pure function of the seed, and the
   Kogan–Petrank wait-free trace on every fifth seed. *)
let plan_of_seed seed =
  {
    default_plan with
    seed;
    crash_at = Some (8 + (seed * 13 mod 150));
    policy = Crash_world.policy_of_seed seed;
    stack =
      {
        Onll_stack.plain with
        top = Direct (Bare (if seed mod 5 = 0 then `Wait_free else `Plain));
      };
  }

let outcome r =
  let failed = r.failures <> [] || not r.verdict_ok in
  {
    Campaign.crashed = r.crashed;
    counts =
      [
        ("checked", Bool.to_int (r.verdict <> None));
        ("failures", Bool.to_int failed);
      ];
    violations =
      (if failed then r.failures @ Option.to_list r.verdict else []);
  }

(** E8: [seeds] runs of the grid on each object; a run fails on an audit
    failure or a checker verdict that does not validate. [onll fuzz]
    runs one object's arm. *)
let e8 ~seeds =
  Campaign.make ~recorded:`Columns
    ~title:
      "E8 — crash-fuzz campaign (random schedules, crash points and \
       policies; failures must be 0)"
    ~header:"object"
    ~columns:
      [
        ("runs", "runs");
        ("crashed", "crashed");
        ("checker-validated", "checked");
        ("failures", "failures");
      ]
    ~prefix:"fuzz"
    (List.map
       (fun name ->
         let (module G : Gen.S) = List.assoc name Gen.by_name in
         let module F = Make (G.Spec) in
         Campaign.arm ~name ~seeds
           ~requires:[ Campaign.zero "zero failures on every object" [ "failures" ] ]
           (fun seed ->
             outcome
               (F.run ~plan:(plan_of_seed seed) ~gen_update:G.update
                  ~gen_read:G.read ())))
       [ "counter"; "queue"; "kv"; "stack"; "set"; "ledger" ])
