(** E8 — durable-linearizability crash-fuzz campaign.

    The statistical companion to Definition 5.6: many random schedules ×
    random crash points × crash policies, each audited (completed-operation
    durability, precedence of the recovered order) and — when small enough —
    validated by the exhaustive checker. Every row must show zero failures. *)

open Test_support

module Campaign (S : Onll_core.Spec.S) = struct
  module F = Fuzz.Make (S)

  let run ~gen_update ~gen_read ~seeds =
    let crashes = ref 0 in
    let checked = ref 0 in
    let failures = ref 0 in
    for seed = 1 to seeds do
      let plan =
        {
          Fuzz.default_plan with
          seed;
          n_procs = 3;
          ops_per_proc = 3;
          crash_at = Some (8 + (seed * 13 mod 150));
          policy = Crash_world.policy_of_seed seed;
          stack =
            {
              Onll_stack.plain with
              top =
                Direct (Bare (if seed mod 5 = 0 then `Wait_free else `Plain));
            };
        }
      in
      let r = F.run ~plan ~gen_update ~gen_read () in
      if r.Fuzz.crashed then incr crashes;
      if r.Fuzz.verdict <> None then incr checked;
      if r.Fuzz.failures <> [] || not r.Fuzz.verdict_ok then incr failures
    done;
    (seeds, !crashes, !checked, !failures)
end

let run () =
  let module C_counter = Campaign (Onll_specs.Counter) in
  let module C_queue = Campaign (Onll_specs.Queue_spec) in
  let module C_kv = Campaign (Onll_specs.Kv) in
  let module C_stack = Campaign (Onll_specs.Stack_spec) in
  let module C_set = Campaign (Onll_specs.Set_spec) in
  let module C_ledger = Campaign (Onll_specs.Ledger) in
  let seeds = 80 in
  let rows =
    [
      ("counter",
       C_counter.run ~gen_update:Gen.Counter.update ~gen_read:Gen.Counter.read
         ~seeds);
      ("queue",
       C_queue.run ~gen_update:Gen.Queue.update ~gen_read:Gen.Queue.read
         ~seeds);
      ("kv", C_kv.run ~gen_update:Gen.Kv.update ~gen_read:Gen.Kv.read ~seeds);
      ("stack",
       C_stack.run ~gen_update:Gen.Stack.update ~gen_read:Gen.Stack.read
         ~seeds);
      ("set",
       C_set.run ~gen_update:Gen.Set_g.update ~gen_read:Gen.Set_g.read ~seeds);
      ("ledger",
       C_ledger.run ~gen_update:Gen.Ledger.update ~gen_read:Gen.Ledger.read
         ~seeds);
    ]
    |> List.map (fun (name, (runs, crashes, checked, failures)) ->
           [
             name;
             string_of_int runs;
             string_of_int crashes;
             string_of_int checked;
             string_of_int failures;
           ])
  in
  Onll_util.Table.print
    ~title:
      "E8 — crash-fuzz campaign (random schedules, crash points and \
       policies; failures must be 0)"
    ~header:[ "object"; "runs"; "crashed"; "checker-validated"; "failures" ]
    rows;
  List.iter
    (fun row -> assert (List.nth row 4 = "0"))
    rows;
  print_endline "(asserted: zero failures in every campaign)";
  let summary = Onll_obs.Metrics.create () in
  List.iter
    (fun row ->
      match row with
      | [ name; runs; crashes; checked; failures ] ->
          List.iter
            (fun (k, v) ->
              Onll_obs.Metrics.add
                (Onll_obs.Metrics.counter summary
                   (Printf.sprintf "fuzz.%s.%s" name k))
                (int_of_string v))
            [
              ("runs", runs);
              ("crashed", crashes);
              ("checked", checked);
              ("failures", failures);
            ]
      | _ -> assert false)
    rows;
  let path = Harness.write_snapshot ~experiment:"e8" summary in
  Printf.printf "snapshot: %s\n" path
