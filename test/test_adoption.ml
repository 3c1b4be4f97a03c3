(** The adoption rule of recovery ({!Onll_core.Onll.Adoption.run}) against
    a reference: group commit's former hash-table fold, extended with
    oracle entries (copies no log holds). Random entry sets carry
    duplicate and disagreeing copies, holes, a checkpoint base and
    non-resident entries; both must agree on every reported field, on the
    bumped sequence numbers and on which copies were adopted, in order. *)

module A = Onll_core.Onll.Adoption
module R = Onll_core.Onll.Recovery_report

(* [env] numbers each copy, so the adopted copies are told apart. *)
type entry = int A.entry

let id (e : entry) = { Onll_core.Onll.id_proc = e.proc; id_seq = e.seq }

(* The reference: first copy per index wins (log copies first), gaps up to
   the highest log-resident index, the contiguous run above the base
   adopted, log-resident copies above it dropped, every kept identity
   bumped. *)
let reference ~base_idx ~floors (entries : entry list) =
  let by_idx = Hashtbl.create 64 and disagreements = ref [] in
  let add (e : entry) =
    match Hashtbl.find_opt by_idx e.idx with
    | None -> Hashtbl.replace by_idx e.idx e
    | Some (prior : entry) ->
        if prior.proc <> e.proc || prior.seq <> e.seq then
          disagreements := e.idx :: !disagreements
  in
  let resident, oracle =
    List.partition (fun (e : entry) -> e.resident) entries
  in
  List.iter add resident;
  let log_max = Hashtbl.fold (fun i _ acc -> max i acc) by_idx base_idx in
  let log_ids = Hashtbl.create 64 in
  Hashtbl.iter (fun _ e -> Hashtbl.replace log_ids (id e) ()) by_idx;
  List.iter
    (fun (e : entry) ->
      if e.idx > base_idx && not (Hashtbl.mem log_ids (id e)) then add e)
    oracle;
  let gaps =
    List.filter
      (fun i -> not (Hashtbl.mem by_idx i))
      (List.init (max 0 (log_max - base_idx)) (fun k -> base_idx + 1 + k))
  in
  let rec upto i = if Hashtbl.mem by_idx (i + 1) then upto (i + 1) else i in
  let upto = upto base_idx in
  let adopted =
    List.init (upto - base_idx) (fun k ->
        Hashtbl.find by_idx (base_idx + 1 + k))
  in
  let dropped =
    List.filter_map
      (fun i ->
        match Hashtbl.find_opt by_idx i with
        | Some (e : entry) when e.resident -> Some (id e)
        | Some _ | None -> None)
      (List.init (max 0 (log_max - upto)) (fun k -> upto + 1 + k))
  in
  let seqs = Array.copy floors in
  Hashtbl.iter
    (fun _ (e : entry) ->
      if e.seq >= seqs.(e.proc) then seqs.(e.proc) <- e.seq + 1)
    by_idx;
  ( {
      R.recovered_ops = upto - base_idx;
      base_idx;
      gap_indices = gaps;
      dropped;
      disagreements = List.sort_uniq compare !disagreements;
      decode_failures = 0;
      salvage = [];
      lost_acked = [];
    },
    seqs,
    adopted )

let procs = 3

(* A history of [n] operations with per-process sequence numbers; each
   index gets 0-3 log copies (0 is a hole), a copy sometimes names
   another operation (a disagreement), and some indices — at, above or
   beyond the history — get oracle copies, with the right identity, a
   stranger's, or one a log already holds. *)
let gen =
  let open QCheck.Gen in
  let* n = int_range 0 14 in
  let* base_idx = int_range 0 4 in
  let* floors = array_size (return procs) (int_range 0 3) in
  let* owners = list_repeat n (int_bound (procs - 1)) in
  let history =
    let next = Array.make procs 0 in
    List.mapi
      (fun k p ->
        let seq = next.(p) in
        next.(p) <- seq + 1;
        (k + 1, p, seq))
      owners
  in
  let copy ~resident (idx, p, seq) =
    let* stranger = int_bound 9 in
    let* sp = int_bound (procs - 1) and* ss = int_range 0 6 in
    let p, seq = if stranger = 0 then (sp, ss) else (p, seq) in
    return (idx, p, seq, resident)
  in
  let* logged =
    flatten_l
      (List.map
         (fun op ->
           let* copies = frequency [ (1, return 0); (6, int_range 1 3) ] in
           flatten_l (List.init copies (fun _ -> copy ~resident:true op)))
         history)
  in
  let* oracle =
    list_size (int_bound 4)
      (let* idx = int_range 1 (n + 3) in
       match List.find_opt (fun (i, _, _) -> i = idx) history with
       | Some op -> copy ~resident:false op
       | None ->
           let* p = int_bound (procs - 1) and* seq = int_range 0 6 in
           return (idx, p, seq, false))
  in
  let* entries = shuffle_l (List.concat logged @ oracle) in
  return
    ( base_idx,
      floors,
      List.mapi
        (fun k (idx, proc, seq, resident) ->
          { A.idx; proc; seq; env = k; resident })
        entries )

let print (base_idx, floors, entries) =
  Printf.sprintf "base %d floors [%s] entries [%s]" base_idx
    (String.concat ";" (Array.to_list (Array.map string_of_int floors)))
    (String.concat "; "
       (List.map
          (fun (e : entry) ->
            Printf.sprintf "%d:p%d#%d%s" e.idx e.proc e.seq
              (if e.resident then "" else "(oracle)"))
          entries))

let prop_matches_reference =
  QCheck.Test.make ~name:"adoption = the hash-table fold" ~count:2000
    (QCheck.make ~print gen) (fun (base_idx, floors, entries) ->
      let adopted = ref [] in
      let report, seqs =
        A.run ~base_idx ~floors (Array.of_list entries) ~adopt:(fun e ->
            adopted := e :: !adopted)
      in
      let report', seqs', adopted' = reference ~base_idx ~floors entries in
      report = report' && seqs = seqs' && List.rev !adopted = adopted')

(* Entries already in index order, log copies first (one log's, as
   recovery builds them), skip the sort and adopt as the same entries in
   any order do. *)
let prop_sorted_input =
  QCheck.Test.make ~name:"adoption of sorted entries = of shuffled ones"
    ~count:500 (QCheck.make ~print gen) (fun (base_idx, floors, entries) ->
      let run a =
        let adopted = ref [] in
        let report, seqs =
          A.run ~base_idx ~floors a ~adopt:(fun e -> adopted := e :: !adopted)
        in
        (report, seqs, !adopted)
      in
      let shuffled = Array.of_list entries in
      let sorted = Array.copy shuffled in
      Array.stable_sort
        (fun (a : entry) b ->
          match Int.compare a.idx b.idx with
          | 0 -> Bool.compare b.resident a.resident
          | c -> c)
        sorted;
      let before = Array.copy sorted in
      let result = run sorted in
      result = run shuffled && sorted = before && shuffled = before)

(* The base's floors are never lowered, and the caller's array is left
   alone. *)
let test_floors_kept () =
  let floors = [| 5; 0 |] in
  let _, seqs =
    A.run ~base_idx:3 ~floors
      [| { A.idx = 4; proc = 0; seq = 1; env = (); resident = true } |]
      ~adopt:ignore
  in
  Alcotest.(check (array int)) "floors kept" [| 5; 0 |] seqs;
  Alcotest.(check (array int)) "input untouched" [| 5; 0 |] floors

let () =
  Alcotest.run "adoption"
    [
      ( "adoption",
        [
          QCheck_alcotest.to_alcotest prop_matches_reference;
          Alcotest.test_case "floors kept" `Quick test_floors_kept;
          QCheck_alcotest.to_alcotest prop_sorted_input;
        ] );
    ]
