(** The E19 atomicity chaos campaign: seeded cross-shard transfers cut by
    crashes at swept schedule points, audited for {e all-or-nothing}
    visibility.

    Each simulated process owns a disjoint set of kv accounts (so no
    cross-process data races muddy the oracle) plus one "note" key, and
    runs a deterministic action script: mostly two-operation {e transfers}
    between two of its accounts on (usually) different shards, submitted
    with [txn_detectable], interleaved with plain single-key updates —
    the latter both exercise the fast path and give concurrent fuzzy
    windows a chance to {e helper-commit} a neighbour's staged
    transaction. Every action writes {e absolute} values drawn
    from a per-action power of two, which makes the state after every
    prefix of a process's script pairwise distinct — so "which prefix
    survived?" has exactly one answer and a partial transaction matches
    {e no} prefix at all.

    Why no media faults here: the E12/E13 grids already cover media
    damage, and absolute-valued transfers make account sums
    history-dependent under whole-record loss — the crisp invariants
    below only hold when durable fenced records survive, i.e. under pure
    crash policies ([Drop_all]/[Persist_all]/[Random] pending-line
    subsets). Under those, a process's coordinator records are
    prefix-closed (each commit fence drains before the next txn stages),
    which is what the audit leans on.

    Post-crash, recovery must satisfy, per process:

    - {b prefix}: the recovered values of its accounts + note equal the
      model state after some prefix of its script — a transfer with one
      leg visible and the other missing matches no prefix (the atomicity
      check);
    - {b completion}: every action that {e returned} before the crash is
      inside that prefix, and every transfer that returned answers
      [txn_was_committed] = true;
    - {b prefix-closed commitment}: the committed transaction sequence
      numbers form a gapless prefix [0..k-1];
    - {b balance}: summed over {e all} processes and shards, the transfer
      accounts net to zero — value moved, never created or destroyed;
    - {b idempotence}: an immediate second recovery adopts the identical
      operation set;
    - {b liveness}: the recovered object completes a post-crash transfer
      era and the books still balance.

    The object is a [Txn _] {!Onll_stack.t}, built by {!Onll_stack.Make}
    and driven through its [txn] field, so the campaign runs over any
    transaction stack. The calibration arm re-runs a slice of the same
    plans against the stack's [recover_unhardened] (no coordinator sweep,
    no oracle): completed transfers become invisible or half-applied, and
    the audit {e must} flag it — a campaign whose detector never fires
    proves nothing. *)

open Onll_util
module Kv = Onll_specs.Kv

type plan = {
  seed : int;
  n_procs : int;
  actions_per_proc : int;
  crash_at : int;  (** scheduler step of the crash *)
  policy : Onll_nvm.Crash_policy.t;
  stack : Onll_stack.t;  (** a [Txn _] stack *)
  hardened : bool;
}

let plan_of_seed seed =
  {
    seed;
    n_procs = 2 + (seed mod 2);
    actions_per_proc = 4 + (seed mod 3);
    crash_at = 10 + (seed * 13 mod 170);
    policy = Crash_world.policy_of_seed seed;
    stack = { Onll_stack.plain with top = Txn 4 };
    hardened = true;
  }

(* The mirrored arm: every region — shard logs and coordinator logs —
   two-way replicated, all copies drained under the same fences. The
   invariants are identical; what is being checked is that mirroring
   composes with the commit protocol without adding fences or races. *)
let mirrored_plan_of_seed seed =
  let p = plan_of_seed seed in
  { p with stack = { p.stack with replicas = 2 } }

(* The same per-seed adversity over another transaction stack. *)
let over stack plan_of seed = { (plan_of seed) with stack }

(* One process's deterministic script: the action list and the model
   state (accounts, note) after every prefix. Account values are signed
   sums of distinct powers of two and the note is a fresh power per
   write, so prefix states are pairwise distinct. *)
type action =
  | Transfer of { t_seq : int; ops : Kv.update_op list }
  | Note of Kv.update_op

let n_accts = 4

let acct_key p i = Printf.sprintf "acct.%d.%d" p i
let note_key p = Printf.sprintf "note.%d" p

let script_of ~plan p =
  let rng = Splitmix.create ((plan.seed * 1_000_003) + p) in
  let bal = Array.make n_accts 0 in
  let note = ref 0 in
  let states = ref [ (Array.copy bal, !note) ] (* newest first *) in
  let txn_seq = ref 0 in
  let actions =
    List.init plan.actions_per_proc (fun t ->
        let amount = 1 lsl t in
        let a =
          if t mod 3 = 2 then begin
            note := amount;
            Note (Kv.Put (note_key p, string_of_int amount))
          end
          else begin
            let src = Splitmix.int rng n_accts in
            let dst = (src + 1 + Splitmix.int rng (n_accts - 1)) mod n_accts in
            bal.(src) <- bal.(src) - amount;
            bal.(dst) <- bal.(dst) + amount;
            let ops =
              [
                Kv.Put (acct_key p src, string_of_int bal.(src));
                Kv.Put (acct_key p dst, string_of_int bal.(dst));
              ]
            in
            let seq = !txn_seq in
            incr txn_seq;
            Transfer { t_seq = seq; ops }
          end
        in
        states := (Array.copy bal, !note) :: !states;
        a)
  in
  (* states.(k) = model after prefix k, oldest first *)
  (actions, Array.of_list (List.rev !states))

type result = {
  crashed : bool;
  completed : int;  (** actions that returned pre-crash, all processes *)
  committed : int;  (** transactions committed per the recovered table *)
  swept : int;  (** sub-operations recovery had to re-apply *)
  violations : string list;
}

let run ~plan () =
  let w = Crash_world.create ~n_procs:plan.n_procs ~policy:plan.policy in
  let module M = (val Crash_world.machine w) in
  let module B = Onll_stack.Make (M) (Kv) in
  let obj = B.build plan.stack (Crash_world.config w) in
  let tx = Option.get obj.B.txn in
  let scripts = Array.init plan.n_procs (fun p -> script_of ~plan p) in
  (* Plain refs mutated inside simulated processes: bookkeeping, not
     shared state, hence not scheduling points. *)
  let done_actions = Array.make plan.n_procs 0 in
  let done_txn_seq = Array.make plan.n_procs (-1) in
  let mk_proc p _ =
    let actions, _ = scripts.(p) in
    List.iter
      (fun a ->
        (match a with
        | Transfer { t_seq; ops } ->
            ignore (tx.B.txn_detectable ~seq:t_seq ops);
            done_txn_seq.(p) <- t_seq
        | Note op -> ignore (obj.B.update op));
        done_actions.(p) <- done_actions.(p) + 1)
      actions
  in
  let crashed =
    Crash_world.run_to_crash w ~seed:plan.seed ~crash_at:plan.crash_at
      (Array.init plan.n_procs (fun p -> mk_proc p))
  in
  let fail fmt = Crash_world.fail w fmt in
  if crashed then begin
    (if plan.hardened then begin
       let r = obj.B.recover_report () in
       (* Pure crash chaos: nothing fenced can vanish, so recovery must
          be spotless — any gap, disagreement or decode failure is a
          protocol bug, not an excuse. *)
       if not (Onll_core.Onll.Recovery_report.clean r) then
         fail "recovery not clean under pure crash: %a"
           Onll_core.Onll.Recovery_report.pp r
     end
     else obj.B.recover_unhardened ());
    let balance key =
      match obj.B.read (Kv.Get key) with
      | Kv.Found (Some s) -> int_of_string s
      | _ -> 0
    in
    (* What the transfer accounts net to, summed over every process and
       shard: transfers move value, never mint it. *)
    let net () =
      let sum = ref 0 in
      for p = 0 to plan.n_procs - 1 do
        for i = 0 to n_accts - 1 do
          sum := !sum + balance (acct_key p i)
        done
      done;
      !sum
    in
    for p = 0 to plan.n_procs - 1 do
      let actions, states = scripts.(p) in
      let state_matches k =
        let bal, note = states.(k) in
        balance (note_key p) = note
        && Array.for_all2 ( = )
             (Array.init n_accts (fun i -> balance (acct_key p i)))
             bal
      in
      (match
         Crash_world.longest_prefix ~matches:state_matches
           (List.length actions)
       with
      | None ->
          fail
            "proc %d: recovered state matches NO prefix of its script — a \
             partial transaction is visible"
            p
      | Some k ->
          if done_actions.(p) > k then
            fail
              "proc %d: %d actions returned before the crash but only the \
               %d-action prefix survived"
              p
              done_actions.(p)
              k);
      (* Commitment: gapless prefix, covering every returned transfer. *)
      let committed_seqs =
        List.filter_map
          (fun (id : Onll_txn.txn_id) ->
            if id.txn_proc = p then Some id.txn_seq else None)
          (tx.B.committed_txns ())
      in
      let sorted = List.sort compare committed_seqs in
      if sorted <> List.init (List.length sorted) (fun i -> i) then
        fail "proc %d: committed transaction seqs are not a gapless prefix" p;
      for s = 0 to done_txn_seq.(p) do
        if not (tx.B.txn_was_committed { Onll_txn.txn_proc = p; txn_seq = s })
        then
          fail
            "proc %d: transfer seq %d returned before the crash but is not \
             committed after recovery"
            p s
      done
    done;
    let total = net () in
    if total <> 0 then
      fail "shard sums do not balance: transfer accounts net %d, want 0" total;
    (* Idempotence (hardened only: the calibration baseline neither
       sweeps nor reports, so re-running it proves nothing). *)
    if plan.hardened then begin
      let ops1 = obj.B.recovered_ops () in
      ignore (obj.B.recover_report ());
      if ops1 <> obj.B.recovered_ops () then
        fail "second recovery adopted a different operation set"
    end;
    (* Liveness: a post-crash delta transfer per process, then the books
       must still balance. *)
    let post p _ =
      let src = balance (acct_key p 0) and dst = balance (acct_key p 1) in
      ignore
        (tx.B.txn
           [
             Kv.Put (acct_key p 0, string_of_int (src - 7));
             Kv.Put (acct_key p 1, string_of_int (dst + 7));
           ])
    in
    Crash_world.era w ~what:"post-crash transfer era"
      (Array.init plan.n_procs (fun p -> post p));
    let total' = net () in
    if total' <> 0 then
      fail "books unbalanced after the post-crash era: net %d" total'
  end;
  {
    crashed;
    completed = Array.fold_left ( + ) 0 done_actions;
    committed = List.length (tx.B.committed_txns ());
    swept =
      Onll_obs.Metrics.counter_value w.Crash_world.registry
        "txn.sweep.injected";
    violations = Crash_world.violations w;
  }

(* {2 Campaigns} *)

let outcome r =
  {
    Campaign.crashed = r.crashed;
    counts =
      [
        ("completed", r.completed);
        ("committed", r.committed);
        ("swept", r.swept);
      ];
    violations = r.violations;
  }

(* A transaction campaign: hardened arms [(name, plan_of, seeds)], each
   clean, and the no-sweep calibration over [calibrate]'s grid, caught
   when a crash run is flagged. *)
let campaign ~arms ~calibrate:(plan_of, seeds) () =
  Campaign.make
    ~title:
      "E19 — cross-shard transaction atomicity chaos (crash sweep; after \
       every crash a transfer is all-or-nothing and the books balance; \
       violations must be 0)"
    ~header:"arm"
    ~columns:
      [
        ("runs", "runs");
        ("crashed", "crashed");
        ("completed", "completed");
        ("committed", "committed");
        ("swept", "swept");
        ("violations", "violations");
      ]
    ~prefix:"e19"
    (List.map
       (fun (name, plan_of, seeds) ->
         Campaign.arm ~name ~seeds ~requires:[ Campaign.no_violations ]
           (fun seed -> outcome (run ~plan:(plan_of seed) ())))
       arms
    @ [
        Campaign.calibration ~label:"unhardened recovery, no sweep"
          ~verdict:"crashes caught losing or tearing transactions" ~seeds
          ~caught:(fun o -> o.crashed && o.violations <> [])
          (fun seed ->
            outcome (run ~plan:{ (plan_of seed) with hardened = false } ()));
      ])

(** E19: the plain and mirrored arms, the calibration over the plain
    grid. *)
let e19 ~seeds ~calibration_seeds =
  campaign
    ~arms:
      [
        ("txn", plan_of_seed, seeds);
        ("txn/mirrored", mirrored_plan_of_seed, seeds);
      ]
    ~calibrate:(plan_of_seed, calibration_seeds)
    ()

(** One arm over [plan_of]'s grid and its own calibration: [onll chaos
    --txn], and the audit over another stack ({!over}). *)
let one ~name ~seeds ~calibration_seeds plan_of =
  campaign
    ~arms:[ (name, plan_of, seeds) ]
    ~calibrate:(plan_of, calibration_seeds)
    ()
