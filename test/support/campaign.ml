(** The seeded crash campaigns as values: E8, E12–E16, E19 and E20 are
    each one {!t}, and the bench, the gate, [onll chaos] and the tier-1
    slices all read it.

    A campaign is its arms, its table and its requirements. An {!arm} is a
    name, a seed count and a run from a seed to an {!outcome}; the loop
    ({!sum}) sums seeds [1..n] of it into a {!row} of named counts. A
    {!requirement} names count keys that must sum to 0, or to at least
    [n], over every row that carries it, so one requirement on two arms
    (E15's two naive rows) is met by their sum. A calibration is an arm
    too: a deliberately broken run whose catches are counted, and which
    must be caught. It prints as one line, not as a table row.

    {!verdict} names every unmet requirement of the arms that ran. Each
    consumer runs a campaign, or a part of it ({!run}'s [only]), and acts
    on that verdict in its own way: an assert in [bench/main.exe eNN], a
    named failure in [bench_gate], exit code 4 (a [Zero] requirement) or
    1 (a calibration or other [At_least]) in [onll chaos], a check in a
    tier-1 slice. None of them compares a count itself.

    The subprocess campaigns (E17, E18) fork and keep only the loop: they
    sum {!tally} runs with {!tally_arm} and print with {!print}. *)

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
let sum ~name ~seeds ~crashed ~violations ~counts run =
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

(** Fold one row into [reg] as [prefix.key] counters: [runs], [crashed],
    every count and [violations], or exactly [keys] when given. *)
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

(** {1 Campaign values} *)

(** One seeded run, as the loop sums it. *)
type outcome = {
  crashed : bool;
  counts : (string * int) list;
      (** the same keys in the same order on every run of an arm *)
  violations : string list;  (** audit failures; empty = pass *)
}

type need = Zero | At_least of int

type requirement = {
  what : string;  (** what holds when it is met, as a sentence *)
  keys : string list;  (** summed over every row that carries it *)
  need : need;
}

let zero what keys = { what; keys; need = Zero }
let no_violations = zero "zero violations on every hardened arm" [ "violations" ]

type role =
  | Row of string
      (** a table row, recorded as [<prefix>.<key>.*] under this key *)
  | Calibration of { label : string; verdict : string }
      (** one line, [calibration (<label>): <caught>/<runs> <verdict>],
          recorded as [<prefix>.calibration.runs] and [.caught] *)
  | Unshown  (** checked only: neither printed nor recorded *)

type arm = {
  name : string;
  role : role;
  seeds : int;  (** the arm runs seeds [1..seeds] *)
  run : int -> outcome;
  requires : requirement list;
}

(** A table row of [seeds] runs, recorded under [key] (default: its
    name). *)
let arm ?key ~name ~seeds ~requires run =
  { name; role = Row (Option.value key ~default:name); seeds; run; requires }

(** A calibration arm: each run of the broken recovery counts as
    ["caught"] when [caught] flags it, and it must be caught on at least
    [at_least] runs (default 1), or the campaign's zeros prove nothing. *)
let calibration ?(at_least = 1) ~label ~verdict ~seeds ~caught run =
  {
    name = "calibration";
    role = Calibration { label; verdict };
    seeds;
    run =
      (fun seed ->
        let o = run seed in
        { o with counts = [ ("caught", Bool.to_int (caught o)) ] });
    requires =
      [
        {
          what =
            (if at_least = 1 then "the calibration arm is caught"
             else
               Printf.sprintf "the calibration arm is caught on at least %d \
                               of its runs" at_least);
          keys = [ "caught" ];
          need = At_least at_least;
        };
      ];
  }

type t = {
  title : string;
  header : string;  (** the name column's header *)
  columns : (string * string) list;  (** [(header, count key)] *)
  prefix : string;  (** every metric key starts [<prefix>.] *)
  recorded : [ `Every_count | `Columns ];
      (** which values of a row become metrics *)
  arms : arm list;
  footer : (summary -> string) option;  (** a line after the table *)
  hist : (string * string) option;
      (** [(label, key prefix)]: the counts under the key prefix are a
          histogram, summed over the rows, printed after the table as
          [<label>: <bucket>-><runs>, ...] and recorded per bucket *)
}

and summary = { campaign : t; ran : (arm * row) list  (** in arm order *) }

let make ?(recorded = `Every_count) ?footer ?hist ~title ~header ~columns
    ~prefix arms =
  { title; header; columns; prefix; recorded; arms; footer; hist }

let is_calibration a = match a.role with Calibration _ -> true | _ -> false

(** Run the arms [only] accepts (default: all), in order. *)
let run ?(only = fun _ -> true) c =
  {
    campaign = c;
    ran =
      List.filter_map
        (fun a ->
          if not (only a) then None
          else
            Some
              ( a,
                sum ~name:a.name ~seeds:a.seeds
                  ~crashed:(fun (o : outcome) -> o.crashed)
                  ~violations:(fun o -> o.violations)
                  ~counts:(fun o -> o.counts)
                  a.run ))
        c.arms;
  }

(** What a requirement measured: its keys summed over the rows carrying
    it. *)
let measured s req =
  List.fold_left
    (fun acc (a, r) ->
      if List.mem req a.requires then
        List.fold_left (fun acc k -> acc + get r k) acc req.keys
      else acc)
    0 s.ran

type unmet = { requirement : requirement; got : int; rows : string list }

(* Every requirement the arms that ran carry, once, in first-carried
   order. *)
let requirements s =
  List.fold_left
    (fun acc (a, _) ->
      acc @ List.filter (fun q -> not (List.mem q acc)) a.requires)
    [] s.ran

let met req got = match req.need with Zero -> got = 0 | At_least n -> got >= n

(** Every unmet requirement of the arms that ran; [[]] = the campaign
    holds. *)
let verdict s =
  List.filter_map
    (fun req ->
      let got = measured s req in
      if met req got then None
      else
        Some
          {
            requirement = req;
            got;
            rows =
              List.filter_map
                (fun (a, _) ->
                  if List.mem req a.requires then Some a.name else None)
                s.ran;
          })
    (requirements s)

(** A [Zero] requirement broken: a violation, not a calibration. *)
let is_violation u = u.requirement.need = Zero

let describe u =
  Printf.sprintf "%s — %s over %s is %d, must be %s" u.requirement.what
    (String.concat " + " u.requirement.keys)
    (String.concat ", " u.rows) u.got
    (match u.requirement.need with
    | Zero -> "0"
    | At_least n -> Printf.sprintf "at least %d" n)

(** Run the whole campaign and describe every unmet requirement: what a
    tier-1 slice checks is empty. *)
let unmet c = List.map describe (verdict (run c))

(** What the arms that ran were held to, each requirement once. *)
let held s = List.map (fun q -> q.what) (requirements s)

let table_rows s =
  List.filter_map
    (fun (a, r) -> match a.role with Row _ -> Some r | _ -> None)
    s.ran

(* The histogram's nonzero buckets, [(count key, runs)], in count order. *)
let buckets s =
  match (s.campaign.hist, table_rows s) with
  | None, _ | _, [] -> []
  | Some (_, p), (r :: _ as rows) ->
      List.filter_map
        (fun (k, _) ->
          if not (String.starts_with ~prefix:p k) then None
          else
            match total k rows with 0 -> None | n -> Some (k, n))
        r.counts

(** The table of the rows that ran, its footer and histogram, then each
    calibration line. A summary of calibrations alone prints only their
    lines. *)
let show s =
  let c = s.campaign in
  (match table_rows s with
  | [] -> ()
  | rows ->
      print ~title:c.title ~header:c.header ~columns:c.columns rows;
      Option.iter (fun f -> print_endline (f s)) c.footer;
      Option.iter
        (fun (label, p) ->
          let n = String.length p in
          Printf.printf "%s: %s\n" label
            (String.concat ", "
               (List.map
                  (fun (k, runs) ->
                    Printf.sprintf "%s->%d"
                      (String.sub k n (String.length k - n))
                      runs)
                  (buckets s))))
        c.hist);
  List.iter
    (fun (a, r) ->
      match a.role with
      | Calibration { label; verdict } ->
          let caught = get r "caught" in
          Printf.printf "calibration (%s): %d/%d %s %s\n" label caught r.runs
            verdict
            (if caught > 0 then "(detector fires)"
             else "(DETECTOR NEVER FIRED — campaign proves nothing)")
      | _ -> ())
    s.ran

(** Fold a summary into [reg] under the campaign's prefix: each row as
    [<key>.*], a calibration as [calibration.runs] and [.caught], each
    histogram bucket under its count key. *)
let metrics ?(reg = Onll_obs.Metrics.create ()) s =
  let c = s.campaign in
  let add k v =
    Onll_obs.Metrics.add
      (Onll_obs.Metrics.counter reg (c.prefix ^ "." ^ k))
      v
  in
  List.iter
    (fun (a, r) ->
      match a.role with
      | Row key ->
          List.iter
            (fun (k, v) -> add (key ^ "." ^ k) v)
            (match c.recorded with
            | `Every_count -> fields r
            | `Columns -> List.map (fun (_, k) -> (k, get r k)) c.columns)
      | Calibration _ ->
          add "calibration.runs" r.runs;
          add "calibration.caught" (get r "caught")
      | Unshown -> ())
    s.ran;
  List.iter (fun (k, n) -> add k n) (buckets s);
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

(** {!sum} over tallies: the row's counts are [keys], in order, and a run
    crashed when its ["kills"] count is above 0. *)
let tally_arm ~name ~seeds ~keys run =
  sum ~name ~seeds
    ~crashed:(fun t -> count t "kills" > 0)
    ~violations:(fun t -> List.rev t.failures)
    ~counts:(fun t -> List.map (fun k -> (k, count t k)) keys)
    run

(** How a child process ended, for a violation message. *)
let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s
