(** The seeded crash campaigns as values: E8 and E12–E20 are each one
    {!t}, and the bench, the gate, the [onll] verbs and the tier-1 slices
    all read it.

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
    1 (a calibration or other [At_least]) in [onll chaos], [onll store
    campaign] and [onll service campaign], a check in a tier-1 slice.
    None of them compares a count itself.

    The subprocess campaigns (E17, E18) run forked epochs and [onll serve]
    children; a run counts as it goes into a {!tally}, which {!of_tally}
    turns into an outcome. *)

type row = {
  name : string;
  runs : int;
  crashed : int;
  counts : (string * int) list;  (** summed per key, in projection order *)
  violations : string list;
      (** ["<name> seed <n>: <msg>"], in seed order; empty = clean *)
}

(** One seeded run, as the loop sums it. *)
type outcome = {
  crashed : bool;
  counts : (string * int) list;
      (** the same keys in the same order on every run of an arm *)
  violations : string list;  (** audit failures; empty = pass *)
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
let sum ~name ~seeds run =
  let rec go seed (acc : row) =
    if seed > seeds then { acc with violations = List.rev acc.violations }
    else
      let (o : outcome) = run seed in
      go (seed + 1)
        {
          acc with
          runs = acc.runs + 1;
          crashed = acc.crashed + Bool.to_int o.crashed;
          counts =
            (if seed = 1 then o.counts else add_counts acc.counts o.counts);
          violations =
            List.rev_append
              (List.map
                 (Printf.sprintf "%s seed %d: %s" name seed)
                 o.violations)
              acc.violations;
        }
  in
  go 1 { name; runs = 0; crashed = 0; counts = []; violations = [] }

(* Every value of a row, as [(key, value)]: [runs], [crashed], the
   counts, then [violations] (their number). *)
let fields (r : row) =
  (("runs", r.runs) :: ("crashed", r.crashed) :: r.counts)
  @ [ ("violations", List.length r.violations) ]

(** A row's value under [key]; 0 for a count the row never summed (an
    arm of zero seeds). *)
let get r key = Option.value ~default:0 (List.assoc_opt key (fields r))

(** {1 Campaign values} *)

type need = Zero | At_least of int

type requirement = {
  what : string;  (** what holds when it is met, as a sentence *)
  keys : string list;  (** summed over every row that carries it *)
  need : need;
}

let zero what keys = { what; keys; need = Zero }
let at_least n what keys = { what; keys; need = At_least n }
let no_violations = zero "zero violations on every hardened arm" [ "violations" ]

type role =
  | Row of { key : string; records : string list option }
      (** a table row, recorded as [<prefix>.<key>.*]: the values named
          in [records], or every value of the row *)
  | Calibration of { label : string; verdict : string }
      (** one line, [calibration (<label>): <caught>/<runs> <verdict>],
          recorded as [<prefix>.calibration.runs] and [.caught] *)

type arm = {
  name : string;
  role : role;
  seeds : int;  (** the arm runs seeds [1..seeds] *)
  run : int -> outcome;
  requires : requirement list;
}

(** A table row of [seeds] runs, recorded under [key] (default: its
    name) as the values [records] names (default: every one). *)
let arm ?key ?records ~name ~seeds ~requires run =
  {
    name;
    role = Row { key = Option.value key ~default:name; records };
    seeds;
    run;
    requires;
  }

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
  arms : arm list;
  footer : (summary -> string) option;  (** a line after the table *)
  hist : (string * string) option;
      (** [(label, key prefix)]: the counts under the key prefix are a
          histogram, summed over the rows, printed after the table as
          [<label>: <bucket>-><runs>, ...] and recorded per bucket *)
}

and summary = { campaign : t; ran : (arm * row) list  (** in arm order *) }

let make ?footer ?hist ~title ~header ~columns ~prefix arms =
  { title; header; columns; prefix; arms; footer; hist }

let is_calibration a = match a.role with Calibration _ -> true | _ -> false

(** Run the arms [only] accepts (default: all), in order. *)
let run ?(only = fun _ -> true) c =
  {
    campaign = c;
    ran =
      List.filter_map
        (fun a ->
          if only a then Some (a, sum ~name:a.name ~seeds:a.seeds a.run)
          else None)
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
            match List.fold_left (fun acc r -> acc + get r k) 0 rows with
            | 0 -> None
            | n -> Some (k, n))
        r.counts

(** The table of the rows that ran, each violation message, the footer
    and histogram, then each calibration line. A summary of calibrations
    alone prints only their lines. *)
let show s =
  let c = s.campaign in
  (match table_rows s with
  | [] -> ()
  | rows ->
      Onll_util.Table.print ~title:c.title
        ~header:(c.header :: List.map fst c.columns)
        (List.map
           (fun (r : row) ->
             r.name
             :: List.map (fun (_, k) -> string_of_int (get r k)) c.columns)
           rows);
      List.iter
        (fun (r : row) ->
          List.iter (Printf.printf "  VIOLATION %s\n") r.violations)
        rows;
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
      | Row _ -> ())
    s.ran

(** Fold a summary into [reg] under the campaign's prefix: each row as
    [<key>.*], a calibration as [calibration.runs] and [.caught], each
    histogram bucket under its count key. *)
let metrics ?(reg = Onll_obs.Metrics.create ()) s =
  let add k v =
    Onll_obs.Metrics.add
      (Onll_obs.Metrics.counter reg (s.campaign.prefix ^ "." ^ k))
      v
  in
  List.iter
    (fun (a, r) ->
      match a.role with
      | Row { key; records } ->
          List.iter
            (fun (k, v) -> add (key ^ "." ^ k) v)
            (match records with
            | None -> fields r
            | Some ks -> List.map (fun k -> (k, get r k)) ks)
      | Calibration _ ->
          add "calibration.runs" r.runs;
          add "calibration.caught" (get r "caught"))
    s.ran;
  List.iter (fun (k, n) -> add k n) (buckets s);
  reg

(** {1 Tallies}

    A run that counts as it goes — a subprocess campaign's multi-epoch
    scenario (E17, E18), a sim run's audit — bumps named counts and
    records violations in a tally. *)

type tally = {
  tallied : (string, int) Hashtbl.t;
  mutable failures : string list;  (** newest first *)
}

let tally () = { tallied = Hashtbl.create 16; failures = [] }
let count t key = Option.value ~default:0 (Hashtbl.find_opt t.tallied key)
let bump ?(by = 1) t key = Hashtbl.replace t.tallied key (count t key + by)
let fail t fmt = Format.kasprintf (fun s -> t.failures <- s :: t.failures) fmt

(** A tallied run as an outcome: its counts under [keys], in order; it
    crashed when its ["kills"] count is above 0. *)
let of_tally ~keys t =
  {
    crashed = count t "kills" > 0;
    counts = List.map (fun k -> (k, count t k)) keys;
    violations = List.rev t.failures;
  }

(** How a child process ended, for a violation message. *)
let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s
