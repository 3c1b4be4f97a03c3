(** The one campaign loop behind the seeded crash campaigns (E12–E20):
    seed → run → audit → sum a row, a calibration counter, one table
    printer and one metrics fold.

    A campaign supplies its per-seed plan grid, its [run] and a projection
    of its result onto named counts ([media_faults], [acked], …); the
    module owns everything else. A row's counts keep the projection's key
    order, so a table column or metric key names a count, never a record
    field. *)

type row = {
  name : string;
  runs : int;
  crashed : int;
  counts : (string * int) list;  (** summed per key, in projection order *)
  violations : string list;
      (** ["<name> seed <n>: <msg>"], in seed order; empty = clean *)
}

(* Per-key sum of two runs' counts. A run whose keys do not line up with
   the accumulated row is a broken projection, not data to merge. *)
let add_counts a b =
  List.map2
    (fun (k, v) (k', v') ->
      assert (k = k');
      (k, v + v'))
    a b

(** Run seeds [1..seeds] of one arm and sum them into a row. *)
let arm ~name ~seeds ~crashed ~violations ~counts run =
  let rec go seed acc =
    if seed > seeds then { acc with violations = List.rev acc.violations }
    else
      let r = run seed in
      let c = counts r in
      go (seed + 1)
        {
          acc with
          runs = acc.runs + 1;
          crashed = (acc.crashed + if crashed r then 1 else 0);
          counts = (if seed = 1 then c else add_counts acc.counts c);
          violations =
            List.rev_append
              (List.map (Printf.sprintf "%s seed %d: %s" name seed)
                 (violations r))
              acc.violations;
        }
  in
  go 1 { name; runs = 0; crashed = 0; counts = []; violations = [] }

(** Calibration: run seeds [1..seeds] of the deliberately broken arm and
    count the runs the campaign's own [caught] predicate flags — which it
    must, on at least one seed, or the campaign's zeros prove nothing. *)
let calibrate ~seeds ~caught run =
  let n = ref 0 in
  for seed = 1 to seeds do
    if caught (run seed) then incr n
  done;
  !n

(* Every value of a row, as [(key, value)]: [runs], [crashed], the
   counts, then [violations] (their number). *)
let fields r =
  (("runs", r.runs) :: ("crashed", r.crashed) :: r.counts)
  @ [ ("violations", List.length r.violations) ]

(** A row's value under [key]; 0 for a count the row never summed (an
    arm of zero seeds). *)
let get r key = Option.value ~default:0 (List.assoc_opt key (fields r))

let total key rows = List.fold_left (fun acc r -> acc + get r key) 0 rows

(** One line per row: the row name under [header], then one column per
    [(header, key)]; every violation message follows the table. *)
let print ~title ~header ~columns rows =
  Onll_util.Table.print ~title
    ~header:(header :: List.map fst columns)
    (List.map
       (fun r ->
         r.name :: List.map (fun (_, k) -> string_of_int (get r k)) columns)
       rows);
  List.iter
    (fun r -> List.iter (Printf.printf "  VIOLATION %s\n") r.violations)
    rows

(** A campaign with a calibration arm: its hardened rows, and how many of
    the calibration arm's runs its detector caught. *)
type summary = { rows : row list; cal_runs : int; cal_caught : int }

let print_calibration ~arm ~verdict s =
  Printf.printf "calibration (%s): %d/%d %s %s\n" arm s.cal_caught s.cal_runs
    verdict
    (if s.cal_caught > 0 then "(detector fires)"
     else "(DETECTOR NEVER FIRED — campaign proves nothing)")

(** Fold one row into [reg] as [prefix.key] counters: [runs], [crashed],
    every count and [violations] — or exactly [keys] when given. *)
let to_metrics ?(reg = Onll_obs.Metrics.create ()) ?keys ~prefix r =
  let kvs =
    match keys with
    | None -> fields r
    | Some ks -> List.map (fun k -> (k, get r k)) ks
  in
  List.iter
    (fun (k, v) ->
      Onll_obs.Metrics.add (Onll_obs.Metrics.counter reg (prefix ^ "." ^ k)) v)
    kvs;
  reg

(** Fold a summary into [reg]: each row under [prefix.<name>], the
    calibration arm as [prefix.calibration.runs] / [.caught]. *)
let summary_metrics ?(reg = Onll_obs.Metrics.create ()) ~prefix s =
  List.iter
    (fun r -> ignore (to_metrics ~reg ~prefix:(prefix ^ "." ^ r.name) r))
    s.rows;
  let add k v =
    Onll_obs.Metrics.add (Onll_obs.Metrics.counter reg (prefix ^ k)) v
  in
  add ".calibration.runs" s.cal_runs;
  add ".calibration.caught" s.cal_caught;
  reg

(** {1 Tallies}

    A run that counts as it goes — a subprocess campaign's multi-epoch
    scenario (E17, E18) — bumps named counts and records violations in a
    tally; {!tally_arm} sums its seeds' tallies into a row. *)

type tally = {
  tallied : (string, int) Hashtbl.t;
  mutable failures : string list;  (** newest first *)
}

let tally () = { tallied = Hashtbl.create 16; failures = [] }
let count t key = Option.value ~default:0 (Hashtbl.find_opt t.tallied key)
let bump ?(by = 1) t key = Hashtbl.replace t.tallied key (count t key + by)
let fail t fmt = Format.kasprintf (fun s -> t.failures <- s :: t.failures) fmt

(** {!arm} over tallies: the row's counts are [keys], in order, and a run
    crashed when its ["kills"] count is above 0. *)
let tally_arm ~name ~seeds ~keys run =
  arm ~name ~seeds
    ~crashed:(fun t -> count t "kills" > 0)
    ~violations:(fun t -> List.rev t.failures)
    ~counts:(fun t -> List.map (fun k -> (k, count t k)) keys)
    run

(** How a child process ended, for a violation message. *)
let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s
