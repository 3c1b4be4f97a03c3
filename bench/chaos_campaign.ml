(** E12 — media-fault chaos campaign.

    The robustness companion to E8: crash-fuzz escalated with media faults
    (bit flips and torn spans in durable bytes), transient flush/fence
    failures, and nested crashes armed to fire mid-recovery. Every hardened
    row must show zero violations; the unhardened calibration pass must be
    caught losing data (otherwise the detector proves nothing). *)

open Test_support

let run () =
  (* 4 objects x 130 seeds = 520 hardened runs, + 30 calibration runs. *)
  let s = Chaos_harness.run ~seeds_per_object:130 ~calibration_seeds:30 in
  Chaos_harness.print s;
  assert (Campaign.total "violations" s.Campaign.rows = 0);
  print_endline "(asserted: zero violations in every hardened campaign)";
  assert (s.Campaign.cal_caught > 0);
  print_endline
    "(asserted: the unhardened calibration baseline was caught losing data)";
  let path =
    Harness.write_snapshot ~experiment:"e12" (Chaos_harness.to_metrics s)
  in
  Printf.printf "snapshot: %s\n" path
