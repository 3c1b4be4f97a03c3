(** E15 — exactly-once client sessions.

    The {!Test_support.Session_chaos} campaign: per-client
    {!Onll_session} sessions over the plain, mirrored and sharded
    constructions of a client table, crash-fuzzed (transient flush/fence
    storms, crash policies, nested recovery crashes; primary-scoped media
    faults on the mirrored arm) and audited from the table on
    duplicate-sensitive objects (counter, ledger). The session arms must
    show {e zero} duplicates and {e zero} lost acks; the naive
    at-least-once arm — untracked updates, blind re-invocation — is the
    calibration and must duplicate, or the zeros prove nothing. *)

open Test_support

let run () =
  (* 2 workloads x 4 arms x 40 seeds = 320 runs. *)
  let s = Session_chaos.run_e15 ~seeds_per_arm:40 in
  Session_chaos.print s;
  assert (Session_chaos.e15_violations s = 0);
  print_endline "(asserted: zero violations across every arm)";
  assert (Session_chaos.e15_session_duplicates s = 0);
  assert (Session_chaos.e15_session_lost_acks s = 0);
  print_endline
    "(asserted: exactly-once — zero duplicates and zero lost acks on \
     every session arm, plain, mirrored and sharded)";
  assert (Session_chaos.e15_naive_duplicates s > 0);
  print_endline
    "(asserted: the naive at-least-once arm duplicates — the detector \
     fires)";
  let path =
    Harness.write_snapshot ~experiment:"e15" (Session_chaos.to_metrics s)
  in
  Printf.printf "snapshot: %s\n" path
