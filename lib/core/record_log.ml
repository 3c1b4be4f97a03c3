(* The durable record log of the ONLL construction ({!Onll.Make_generic},
   under either persist policy): its records, its recovery routine and its
   [was_linearized] rule. {!Onll} re-exports the identity, report,
   adoption and snapshot types below and documents them in onll.mli. *)

module Metrics = Onll_obs.Metrics

type op_id = { id_proc : int; id_seq : int }

let pp_op_id ppf { id_proc; id_seq } =
  Format.fprintf ppf "p%d#%d" id_proc id_seq

exception Recovery_corrupt of string
(** Raised when the durable logs are mutually inconsistent (which the
    correctness argument of Prop. 5.10 rules out for crash-consistent logs,
    so this indicates actual corruption or a bug). *)

exception Log_full of string
(** Raised (with the log's region name) when an update or checkpoint record
    cannot be made durable even after auto-compaction: the live history
    alone exceeds the log's capacity. Unlike {!Onll_plog.Plog.Full}, this
    is terminal for the configured capacity. *)

(* What a hardened recovery found and did; see onll.mli. *)
module Recovery_report = struct
  type t = {
    recovered_ops : int;
    base_idx : int;
    gap_indices : int list;
    dropped : op_id list;
    disagreements : int list;
    decode_failures : int;
    salvage : (string * Onll_plog.Plog.salvage_report) list;
    lost_acked : op_id list;
  }

  let detected_loss r =
    r.gap_indices <> [] || r.dropped <> [] || r.disagreements <> []
    || r.decode_failures > 0
    || List.exists
         (fun (_, s) -> s.Onll_plog.Plog.quarantined_spans > 0)
         r.salvage

  let clean r = not (detected_loss r)

  let check r =
    match (r.disagreements, r.gap_indices) with
    | d :: _, _ ->
        raise
          (Recovery_corrupt
             (Printf.sprintf "logs disagree on operation at index %d" d))
    | [], g :: _ ->
        raise
          (Recovery_corrupt
             (Printf.sprintf "operation at index %d missing from all logs" g))
    | [], [] ->
        if r.decode_failures > 0 then
          raise (Recovery_corrupt "undecodable log entry")

  let merge rs =
    let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
    {
      recovered_ops = sum (fun r -> r.recovered_ops);
      base_idx = sum (fun r -> r.base_idx);
      gap_indices = List.concat_map (fun r -> r.gap_indices) rs;
      dropped = List.concat_map (fun r -> r.dropped) rs;
      disagreements = List.concat_map (fun r -> r.disagreements) rs;
      decode_failures = sum (fun r -> r.decode_failures);
      salvage = List.concat_map (fun r -> r.salvage) rs;
      lost_acked = List.concat_map (fun r -> r.lost_acked) rs;
    }

  let pp ppf r =
    Format.fprintf ppf
      "@[<v>recovered_ops=%d base_idx=%d gaps=%d dropped=%d disagreements=%d \
       decode_failures=%d lost_acked=%d@,"
      r.recovered_ops r.base_idx
      (List.length r.gap_indices)
      (List.length r.dropped)
      (List.length r.disagreements)
      r.decode_failures
      (List.length r.lost_acked);
    List.iter
      (fun (name, s) ->
        if s <> Onll_plog.Plog.clean_report then
          Format.fprintf ppf "%s: %a@," name Onll_plog.Plog.pp_salvage_report
            s)
      r.salvage;
    Format.fprintf ppf "detected_loss=%b@]" (detected_loss r)

  let to_metrics ?(prefix = "recovery.") reg r =
    let c name v = Metrics.add (Metrics.counter reg (prefix ^ name)) v in
    let g name v = Metrics.set (Metrics.gauge reg (prefix ^ name)) v in
    c "recovered_ops" r.recovered_ops;
    c "gaps" (List.length r.gap_indices);
    c "dropped" (List.length r.dropped);
    c "disagreements" (List.length r.disagreements);
    c "decode_failures" r.decode_failures;
    c "lost_acked" (List.length r.lost_acked);
    g "base_idx" (float_of_int r.base_idx);
    g "detected_loss" (if detected_loss r then 1. else 0.);
    let torn, quarantined, lost_bytes, repaired, repaired_bytes =
      List.fold_left
        (fun (t, q, lb, re, rb) (_, s) ->
          ( t + s.Onll_plog.Plog.torn_tail_bytes,
            q + s.Onll_plog.Plog.quarantined_spans,
            lb + Onll_plog.Plog.report_lost s,
            re + s.Onll_plog.Plog.repaired_entries,
            rb + s.Onll_plog.Plog.repaired_bytes ))
        (0, 0, 0, 0, 0) r.salvage
    in
    c "salvage.torn_tail_bytes" torn;
    c "salvage.quarantined_spans" quarantined;
    c "salvage.bytes_lost" lost_bytes;
    c "salvage.repaired_entries" repaired;
    c "salvage.repaired_bytes" repaired_bytes

  let to_json ?(meta = []) r =
    let reg = Metrics.create () in
    to_metrics reg r;
    Onll_obs.Export.json ~meta:(("report", "recovery") :: meta) reg
end

(* Listing 5's one decision — which logged operations recovery adopts;
   see onll.mli. *)
module Adoption = struct
  type 'e entry = {
    idx : int;
    proc : int;
    seq : int;
    env : 'e;
    resident : bool;
  }

  (* By index, log-resident copies before oracle ones. *)
  let index_order a b =
    match Int.compare a.idx b.idx with
    | 0 -> Bool.compare b.resident a.resident
    | c -> c

  let run ~base_idx ~floors a ~adopt =
    (* Sorted stably, so the earlier copy of an index comes first, and
       swept once, keeping the first copy of each index. Entries already
       in that order, as one log's are, skip the sort. *)
    let rec sorted i =
      i >= Array.length a
      || (index_order a.(i - 1) a.(i) <= 0 && sorted (i + 1))
    in
    if not (sorted 1) then Array.stable_sort index_order a;
    (* The highest index with a log-resident copy: the horizon below
       which a missing index is reportable loss. *)
    let rec log_max i =
      if i < 0 then base_idx
      else if a.(i).resident then max base_idx a.(i).idx
      else log_max (i - 1)
    in
    let log_max = log_max (Array.length a - 1) in
    (* An oracle entry counts only above the base and when its identity
       has no first log copy: a sub-operation an earlier sweep re-applied
       (and logged) at a relocated index would otherwise collide with its
       own commit record's stale staging index. *)
    let counts =
      if Array.for_all (fun e -> e.resident) a then fun _ -> true
      else begin
        let ids = Hashtbl.create (Array.length a) in
        Array.iteri
          (fun i e ->
            if e.resident && (i = 0 || a.(i - 1).idx <> e.idx) then
              Hashtbl.replace ids (e.proc, e.seq) ())
          a;
        fun e ->
          e.resident
          || (e.idx > base_idx && not (Hashtbl.mem ids (e.proc, e.seq)))
      end
    in
    let seqs = Array.copy floors in
    let gaps = ref [] and dropped = ref [] and disagreements = ref [] in
    let kept_idx = ref min_int and kept_proc = ref 0 and kept_seq = ref 0 in
    let upto = ref base_idx and next = ref (base_idx + 1) in
    Array.iter
      (fun e ->
        if not (counts e) then ()
        else if e.idx = !kept_idx then begin
          (* Duplicates are fine (helping stores the same operation in
             several logs); they must agree on the operation id. *)
          if e.proc <> !kept_proc || e.seq <> !kept_seq then
            disagreements := e.idx :: !disagreements
        end
        else begin
          kept_idx := e.idx;
          kept_proc := e.proc;
          kept_seq := e.seq;
          if e.seq >= seqs.(e.proc) then seqs.(e.proc) <- e.seq + 1;
          if e.idx > base_idx then begin
            for missing = !next to min (e.idx - 1) log_max do
              gaps := missing :: !gaps
            done;
            next := e.idx + 1;
            if e.idx = !upto + 1 then begin
              adopt e;
              upto := e.idx
            end
            else if e.resident then
              dropped := { id_proc = e.proc; id_seq = e.seq } :: !dropped
          end
        end)
      a;
    for missing = !next to log_max do
      gaps := missing :: !gaps
    done;
    ( {
        Recovery_report.recovered_ops = !upto - base_idx;
        base_idx;
        gap_indices = List.rev !gaps;
        dropped = List.rev !dropped;
        disagreements = List.sort_uniq compare !disagreements;
        decode_failures = 0;
        salvage = [];
        lost_acked = [];
      },
      seqs )
end

(* The identities recovery adopted (and a transaction sweep re-applied)
   with their execution indices. Recovery only appends to it — three ints
   per operation into one flat array, which allocates nothing per
   operation — and the by-identity table {!was_linearized} and
   [recovered_ops] read is built on the first question. *)
module Recovered = struct
  type t = {
    mutable ids : int array;  (** process, sequence, index, ... *)
    mutable len : int;  (** ints used *)
    mutable table : (op_id, int) Hashtbl.t option;
  }

  let create n = { ids = Array.make (3 * max n 1) 0; len = 0; table = None }

  let add t ~proc ~seq ~idx =
    if t.len + 3 > Array.length t.ids then begin
      let ids = Array.make (2 * Array.length t.ids) 0 in
      Array.blit t.ids 0 ids 0 t.len;
      t.ids <- ids
    end;
    t.ids.(t.len) <- proc;
    t.ids.(t.len + 1) <- seq;
    t.ids.(t.len + 2) <- idx;
    t.len <- t.len + 3;
    Option.iter
      (fun table -> Hashtbl.replace table { id_proc = proc; id_seq = seq } idx)
      t.table

  let table t =
    match t.table with
    | Some table -> table
    | None ->
        let table = Hashtbl.create (t.len / 3) in
        for i = 0 to (t.len / 3) - 1 do
          Hashtbl.replace table
            { id_proc = t.ids.(3 * i); id_seq = t.ids.((3 * i) + 1) }
            t.ids.((3 * i) + 2)
        done;
        t.table <- Some table;
        table

  let mem t id = Hashtbl.mem (table t) id

  (* The bindings, oldest first. *)
  let by_index t =
    Hashtbl.fold (fun id idx acc -> (id, idx) :: acc) (table t) []
    |> List.sort (fun (_, a) (_, b) -> compare a b)
end

(* One-call introspection bundle; see onll.mli. *)
module Snapshot = struct
  type log = {
    log_name : string;
    live_bytes : int;
    used_bytes : int;
    entry_count : int;
    ops_per_entry : int list;
  }

  type t = {
    latest_available_idx : int;
    max_fuzzy_window : int;
    degraded : bool;
    logs : log list;
  }
end

module Make (M : Onll_machine.Machine_sig.S) (S : Spec.S) = struct
  module L = Onll_plog.Plog.Make (M)

  (* [e_txn]: when this operation is a sub-operation of a cross-shard
     transaction (E19, {!Onll_txn}) that has been staged but whose
     coordinator record is not yet known durable, it carries the encoded
     commit payload. Any process that persists such an envelope (helping,
     Listing 3) thereby makes the whole transaction durable: recovery
     treats a payload found in any log as a committed transaction. A
     combining persist never marks such a node available: only its
     coordinator linearizes it. *)
  type envelope = {
    e_proc : int;
    e_seq : int;
    e_op : S.update_op;
    e_txn : string option;
  }

  let envelope_id e = { id_proc = e.e_proc; id_seq = e.e_seq }
  let envelope_op e = e.e_op

  let envelope id op =
    { e_proc = id.id_proc; e_seq = id.id_seq; e_op = op; e_txn = None }

  (* The calling process's next identity, consumed. *)
  let next_id seqs =
    let p = M.self () in
    let seq = seqs.(p) in
    seqs.(p) <- seq + 1;
    { id_proc = p; id_seq = seq }

  (* [envelope (next_id seqs) op], with no identity built apart. *)
  let next_envelope seqs op =
    let p = M.self () in
    let seq = seqs.(p) in
    seqs.(p) <- seq + 1;
    { e_proc = p; e_seq = seq; e_op = op; e_txn = None }

  (* A client-chosen identity for the calling process, refused before any
     effect when its sequence number is not fresh. *)
  let claim_id seqs ~who ~seq =
    let p = M.self () in
    if seq < seqs.(p) then invalid_arg (who ^ ": sequence number reused");
    seqs.(p) <- seq + 1;
    { id_proc = p; id_seq = seq }

  (* Materialised state (§8): the specification state plus, per process,
     how many of its operations are included ([floors.(p)] = 1 + highest
     included sequence number), so detectability and sequence allocation
     survive compaction. [dropped] lists the floors' exceptions: the
     identities a degraded recovery saw above its base but could not
     adopt. A later operation of the same process raises the floor past
     them, yet they were never applied; applying one removes it.
     Immutable; [floors] is copied on write. *)
  type istate = {
    st : S.state;
    floors : int array;
    dropped : (int * int) list;  (** (process, sequence) *)
  }

  let initial_istate () =
    { st = S.initial; floors = Array.make M.max_processes 0; dropped = [] }

  let apply_env is env =
    let st, v = S.apply is.st env.e_op in
    let floors =
      if env.e_seq >= is.floors.(env.e_proc) then begin
        let f = Array.copy is.floors in
        f.(env.e_proc) <- env.e_seq + 1;
        f
      end
      else is.floors
    in
    let dropped =
      match is.dropped with
      | [] -> []
      | l -> List.filter (( <> ) (env.e_proc, env.e_seq)) l
    in
    ({ st; floors; dropped }, v)

  (* The exceptions ride after the floors, as (process, sequence) pairs,
     so a state without any encodes exactly as before they existed. *)
  let istate_codec =
    let open Onll_util.Codec in
    let n = M.max_processes in
    let pairs l = Array.of_list (List.concat_map (fun (p, q) -> [ p; q ]) l) in
    map
      (fun (st, a) ->
        let extra = Array.length a - n in
        if extra <= 0 then { st; floors = a; dropped = [] }
        else if extra mod 2 <> 0 then raise (Decode_error "istate: dropped")
        else
          {
            st;
            floors = Array.sub a 0 n;
            dropped =
              List.init (extra / 2) (fun i ->
                  (a.(n + (2 * i)), a.(n + (2 * i) + 1)));
          })
      (fun { st; floors; dropped } ->
        match dropped with
        | [] -> (st, floors)
        | l -> (st, Array.append floors (pairs l)))
      (pair S.state_codec (array int))

  (* What goes into the persistent log. [Ops] is Listing 1's recordEntry:
     envelopes newest first, with contiguous execution indices descending
     from [exec_idx] (a helped fuzzy window, or a relaxed drain's run).
     [Checkpoint] summarises the history up to [upto_idx] for
     compaction (§8). One CRC frame per record makes a torn record
     all-or-nothing on recovery. *)
  type record =
    | Ops of { exec_idx : int; envs : envelope list }
    | Checkpoint of { upto_idx : int; state : istate }

  let envelope_codec =
    let open Onll_util.Codec in
    map
      (fun ((e_proc, e_seq, e_op), e_txn) -> { e_proc; e_seq; e_op; e_txn })
      (fun { e_proc; e_seq; e_op; e_txn } -> ((e_proc, e_seq, e_op), e_txn))
      (pair (triple int int S.update_codec) (option string))

  (* A record is one {!Onll_util.Codec.variant} frame. Its two cases,
     over what follows the index in the body: the record codec decodes
     it, where it lies (a checkpoint's is the whole encoded state), and
     the drop key skips it. *)
  let ops_case rest inj = Onll_util.Codec.(case 0 (pair int rest) inj)
  let checkpoint_case rest inj = Onll_util.Codec.(case 1 (pair int rest) inj)

  let record_codec =
    let open Onll_util.Codec in
    let ops =
      ops_case (list envelope_codec) (fun (exec_idx, envs) ->
          Ops { exec_idx; envs })
    and checkpoint =
      checkpoint_case istate_codec (fun (upto_idx, state) ->
          Checkpoint { upto_idx; state })
    in
    variant "record" [ Case ops; Case checkpoint ] (function
      | Ops { exec_idx; envs } -> Is (ops, (exec_idx, envs))
      | Checkpoint { upto_idx; state } -> Is (checkpoint, (upto_idx, state)))

  (* The drop key of an encoded record, read from its frame and the first
     field of its body, which is [exec_idx] for Ops and [upto_idx] for a
     Checkpoint; the rest of the body is skipped. A checkpoint that
     summarises up to [upto] makes redundant every Ops record with
     [exec_idx <= upto] and every Checkpoint with [upto_idx < upto], so
     both keys are compared with [<= upto]. No envelope is decoded, so a
     record whose envelopes do not decode is dropped like any other; only
     a malformed frame keys to [max_int], and such an entry is never
     dropped. (A key encodes as an Ops frame holding only the key.) *)
  let record_key =
    let open Onll_util.Codec in
    let ops = ops_case skip fst
    and checkpoint =
      checkpoint_case skip (fun (upto, ()) ->
          if upto < max_int then upto + 1 else max_int)
    in
    let key =
      variant "record key" [ Case ops; Case checkpoint ] (fun k ->
          Is (ops, (k, ())))
    in
    fun payload ->
      match decode key payload with k -> k | exception Decode_error _ -> max_int

  (* [record_key] of a decoded record. *)
  let key_of_record = function
    | Ops { exec_idx; _ } -> exec_idx
    | Checkpoint { upto_idx; _ } ->
        if upto_idx < max_int then upto_idx + 1 else max_int

  (* Run [f] on [log], turning the log's transient [Full] into the typed,
     terminal [Log_full]. *)
  let typed_full log f =
    try f () with Onll_plog.Plog.Full -> raise (Log_full (L.name log))

  (* Summarise the history up to [upto] (whose state [state] computes)
     into [log] and drop what that makes redundant, by [record_key]
     ([Plog.checkpoint]). *)
  let checkpoint_log log ~upto ~worth state =
    L.checkpoint log ~upto ~worth (fun () ->
        Onll_util.Codec.encode record_codec
          (Checkpoint { upto_idx = upto; state = state () }))

  (* An explicit checkpoint or compaction [body]: always worth its
     record, and a log too full for it is terminal. *)
  let forced log body =
    typed_full log (fun () -> Option.get (body ~worth:(fun _ -> true)))

  (* {2 Recovery — Listing 5, hardened} *)

  type recovery = {
    report : Recovery_report.t;
    recovered : Recovered.t;
    txns : string list;
        (** every transaction commit payload riding in a logged envelope,
            first sighting first: the helper-committed transactions *)
  }

  (* The one recovery routine. [hardened] selects the log-level recovery
     (salvaging vs. silently truncating); the rebuild is tolerant in both
     cases — {!Adoption.run} adopts the longest contiguous prefix above the
     deepest checkpoint — and the report says exactly what could not be
     adopted. A CRC-valid entry whose payload nevertheless fails to decode
     (forged or astronomically unlucky bytes) is dropped and counted. The
     strict [recover] entry point turns a lossy report into
     [Recovery_corrupt]; the unhardened one discards it (the calibration
     baseline the chaos campaigns must catch).

     [extra] (E19) is the committed-transaction oracle: sub-operations
     whose sole durable copy is a coordinator's commit record, keyed by
     the execution index assigned when they were staged. They join the
     adoption as non-resident entries, so a hole the logs alone cannot
     account for (a staged sub-operation overwritten only in the
     coordinator region) is filled rather than reported as loss. Indices
     reachable only through the oracle that cannot be adopted in place
     are re-applied by the coordinator sweep ({!Onll_txn}).

     The engine rebuilds its own structures: [reset base_idx state] starts
     them at the deepest checkpoint, then [adopt] receives the adopted
     entries in index order; a recovery that seals a drop (below) runs
     both again, from the sealed state. [seqs] gets each process's next
     sequence number, past every identity seen. Detected loss marks the
     engine [degraded]. *)
  let recover_logs logs ~sink ~hardened ~extra ~reset ~adopt ~seqs ~degraded
      =
    (* Each payload is decoded as its log's recovery walk finds it, so
       none is held past its decode. *)
    let failures = ref 0 in
    let checkpoint = function Checkpoint _ -> true | Ops _ -> false in
    let salvage, by_log =
      if hardened then
        let rs =
          Array.map
            (fun l ->
              let r, records =
                L.recover_decoded l record_codec ~key:key_of_record ~checkpoint
                  ~failures
              in
              ((L.name l, r), records))
            logs
        in
        (Array.to_list (Array.map fst rs), Array.map snd rs)
      else begin
        Array.iter L.recover_unhardened logs;
        ( [],
          Array.map
            (fun l ->
              L.decode_recovered l record_codec ~failures ~checkpoint
                (L.entries l))
            logs )
      end
    in
    (* Best checkpoint = deepest summarised prefix, with the floors'
       exceptions of every checkpoint there (a recovery's seal, below). *)
    let base_idx, base_state =
      Array.fold_left
        (List.fold_left (fun ((bi, bs) as best) r ->
             match r with
             | Checkpoint { upto_idx; state } when upto_idx > bi ->
                 (upto_idx, state)
             | Checkpoint { upto_idx; state } when upto_idx = bi ->
                 ( bi,
                   {
                     bs with
                     dropped =
                       bs.dropped
                       @ List.filter
                           (fun d -> not (List.mem d bs.dropped))
                           state.dropped;
                   } )
             | Checkpoint _ | Ops _ -> best))
        (0, initial_istate ())
        by_log
    in
    let entry idx env resident =
      { Adoption.idx; proc = env.e_proc; seq = env.e_seq; env; resident }
    in
    (* One array of every logged envelope, then the oracle's: each
       record's envelopes, newest first in the record, land oldest first,
       so one log's entries arrive in index order. Every transaction
       commit payload riding in a logged envelope is collected on the
       way, first sighting first. *)
    let n =
      Array.fold_left
        (List.fold_left (fun n -> function
           | Ops { envs; _ } -> n + List.length envs
           | Checkpoint _ -> n))
        (List.length extra) by_log
    in
    (* Made over an immediate placeholder, overwritten below in every one
       of the [n] slots: [Array.make] over a young entry forces a minor
       collection first once [n] exceeds [Max_young_wosize]. *)
    let entries = Array.make n (Obj.magic 0 : envelope Adoption.entry) in
    let seen_txns = Hashtbl.create 8 and txns = ref [] in
    let txn p =
      if not (Hashtbl.mem seen_txns p) then begin
        Hashtbl.replace seen_txns p ();
        txns := p :: !txns
      end
    in
    (* [i] is the slot of the record's newest envelope, at [idx] *)
    let rec put_ops i idx = function
      | [] -> ()
      | env :: older ->
          Option.iter txn env.e_txn;
          entries.(i) <- entry idx env true;
          put_ops (i - 1) (idx - 1) older
    in
    let logged =
      Array.fold_left
        (List.fold_left (fun logged -> function
           | Checkpoint _ -> logged
           | Ops { exec_idx; envs } ->
               let k = List.length envs in
               put_ops (logged + k - 1) exec_idx envs;
               logged + k))
        0 by_log
    in
    List.iteri
      (fun k (idx, id, op) ->
        entries.(logged + k) <- entry idx (envelope id op) false)
      extra;
    reset base_idx base_state;
    let recovered = Recovered.create (Array.length entries) in
    let report, next =
      Adoption.run ~base_idx ~floors:base_state.floors entries
        ~adopt:(fun e ->
          adopt e;
          Recovered.add recovered ~proc:e.proc ~seq:e.seq ~idx:e.idx)
    in
    Array.blit next 0 seqs 0 M.max_processes;
    if Onll_obs.Sink.active sink then
      Onll_obs.Sink.emit sink ~proc:(M.self ())
        (Onll_obs.Event.Recovery { ops = report.recovered_ops });
    (* The logs cannot tell a lost unfenced suffix from operations that
       were simply never invoked: the engine's ledger of unfenced
       acknowledgements fills [lost_acked] after this. *)
    let report = { report with decode_failures = !failures; salvage } in
    (* The degraded-mode policy: detected loss never stops the object, but
       it is admitted, stickily, until the object is rebuilt. *)
    if hardened && Recovery_report.detected_loss report then degraded ();
    (* Dropped operations must not come back: a later recovery would adopt
       them back, or keep them over the update that reuses their index.
       Nor may a later operation's floor vouch for them. So the drop is
       sealed, in every log holding a record above the adopted prefix: a
       checkpoint at the base whose state names every identity this
       recovery saw above the base without adopting it as an exception to
       the floors, appended and fenced before the records it replaces
       vanish behind a skip marker ([Plog.excise]). The engine restarts
       from that state and readopts the prefix. *)
    let upto = base_idx + report.recovered_ops in
    if hardened && report.dropped <> [] then begin
      let seen = Hashtbl.create 8 in
      List.iter (fun d -> Hashtbl.replace seen d ()) base_state.dropped;
      let unadopted =
        List.filter_map
          (fun (e : _ Adoption.entry) ->
            let d = (e.proc, e.seq) in
            if
              e.idx <= base_idx
              || Recovered.mem recovered (envelope_id e.env)
              || Hashtbl.mem seen d
            then None
            else begin
              Hashtbl.replace seen d ();
              Some d
            end)
          (Array.to_list entries)
      in
      let state =
        { base_state with dropped = base_state.dropped @ unadopted }
      in
      let seal =
        Onll_util.Codec.encode record_codec
          (Checkpoint { upto_idx = base_idx; state })
      in
      let stranded = function
        | Ops { exec_idx; _ } -> exec_idx > upto
        | Checkpoint _ -> false
      in
      Array.iteri
        (fun i l ->
          if List.exists stranded by_log.(i) then begin
            typed_full l (fun () ->
                try L.append ~key:(base_idx + 1) l seal
                with Onll_plog.Plog.Full ->
                  L.relocate l;
                  L.append ~key:(base_idx + 1) l seal);
            L.note_checkpoint l seal;
            L.excise l ~from:(fun p ->
                match Onll_util.Codec.decode record_codec p with
                | r -> stranded r
                | exception _ -> false)
          end)
        logs;
      (* [entries] is sorted now, and adoption is a function of it and
         the floors: the same run adopts the same prefix again *)
      reset base_idx state;
      ignore (Adoption.run ~base_idx ~floors:base_state.floors entries ~adopt)
    end;
    { report; recovered; txns = List.rev !txns }

  (* Online self-healing (cooperative step): CRC-walk every log across
     its replicas, repairing divergence in place and quarantining
     double-fault spans, which marks the engine [degraded]. *)
  let scrub_logs logs ~degraded =
    let r =
      Array.fold_left
        (fun acc l -> Onll_plog.Plog.add_scrub acc (L.scrub l))
        Onll_plog.Plog.clean_scrub logs
    in
    if r.Onll_plog.Plog.unrepairable_spans > 0 then degraded ();
    r

  (* {2 Detectable execution} *)

  (* The one detectability rule: an identity took effect iff [mem]
     (adopted by recovery or applied since) names it, or it lies below
     its process's floor in [base ()], the deepest state the engine holds
     (read only when [mem] has no answer), and is not one of the floor's
     exceptions. *)
  let linearized ~mem ~base id =
    mem id
    ||
    let b = base () in
    id.id_seq < b.floors.(id.id_proc)
    && not (List.mem (id.id_proc, id.id_seq) b.dropped)

  (* {2 Introspection} *)

  (* One durable scan: entries are decoded once and every derived
     statistic (counts, sizes, helping profile) comes from that pass. An
     entry that does not decode counts 0 operations, as recovery adopted
     none from it. *)
  let snapshot_log l =
    let ops_per_entry =
      List.map
        (fun e ->
          match Onll_util.Codec.decode record_codec e with
          | Ops { envs; _ } -> List.length envs
          | Checkpoint _ | (exception _) -> 0)
        (L.entries l)
    in
    {
      Snapshot.log_name = L.name l;
      live_bytes = L.live_bytes l;
      used_bytes = L.used_bytes l;
      entry_count = List.length ops_per_entry;
      ops_per_entry;
    }

  (* The fullest log's live bytes over its capacity, from the logs'
     in-memory accounts: no durable load. *)
  let fill logs =
    Array.fold_left
      (fun acc l ->
        Float.max acc
          (float_of_int (L.live_bytes l) /. float_of_int (L.capacity l)))
      0. logs
end
