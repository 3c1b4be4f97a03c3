(* Legal layer stacks and their builder (see onll_stack.mli). *)

type engine = [ `Plain | `Wait_free | `Batched ]

type front = Bare of engine | Sharded of engine * int | Relaxed of engine * int

type top = Direct of front | Session of front | Txn of int
type t = { top : top; replicas : int }

let plain = { top = Direct (Bare `Plain); replicas = 1 }

let legal =
  let fronts =
    [
      Bare `Plain;
      Bare `Wait_free;
      Bare `Batched;
      Sharded (`Plain, 4);
      Sharded (`Batched, 4);
      Relaxed (`Plain, 8);
      Relaxed (`Wait_free, 8);
    ]
  in
  List.concat_map
    (fun top -> [ { top; replicas = 1 }; { top; replicas = 2 } ])
    (List.map (fun f -> Direct f) fronts
    @ List.map (fun f -> Session f) fronts
    @ [ Txn 4 ]
    (* last, so every other stack keeps its position in the list (the
       test suites number their cases by it) *)
    @ [ Direct (Sharded (`Wait_free, 4)); Session (Sharded (`Wait_free, 4)) ]
    @ [ Direct (Relaxed (`Batched, 8)); Session (Relaxed (`Batched, 8)) ])

let engine_name = function
  | `Plain -> "plain"
  | `Wait_free -> "wait-free"
  | `Batched -> "batched"

let pp_front ppf = function
  | Bare e -> Format.pp_print_string ppf (engine_name e)
  | Sharded (e, n) -> Format.fprintf ppf "sharded(%s,%d)" (engine_name e) n
  | Relaxed (e, k) -> Format.fprintf ppf "relaxed(%s,k=%d)" (engine_name e) k

let pp ppf s =
  (match s.top with
  | Direct f -> pp_front ppf f
  | Session f -> Format.fprintf ppf "session/%a" pp_front f
  | Txn n -> Format.fprintf ppf "txn(%d)" n);
  if s.replicas > 1 then Format.fprintf ppf " x%d" s.replicas

(* One front over any specification: a session stack builds its front
   over the client table around the caller's. *)
module Front (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) = struct
  module type C =
    Onll_core.Onll.TXN_CAPABLE
      with type state = S.state
       and type update_op = S.update_op
       and type read_op = S.read_op
       and type value = S.value

  module type SH =
    Onll_sharded.SHARDED
      with type Shard.state = S.state
       and type Shard.update_op = S.update_op
       and type Shard.read_op = S.read_op
       and type Shard.value = S.value

  type relaxed = {
    update_strict : S.update_op -> S.value;
    update_stale : budget:int -> S.update_op -> Onll_core.Onll.op_id * S.value;
    flush : unit -> unit;
    pending_ops : unit -> int;
  }

  type txn = {
    txn : S.update_op list -> S.value list;
    txn_detectable : seq:int -> S.update_op list -> S.value list;
    txn_was_committed : Onll_txn.txn_id -> bool;
    committed_txns : unit -> Onll_txn.txn_id list;
  }

  type obj = {
    update : S.update_op -> S.value;
    update_detectable : seq:int -> S.update_op -> S.value;
    read : S.read_op -> S.value;
    was_linearized : S.update_op -> Onll_core.Onll.op_id -> bool;
    shard_of : S.update_op -> int;
    recover_report : unit -> Onll_core.Onll.Recovery_report.t;
    recover_unhardened : unit -> unit;
    recovered_ops : unit -> (int * Onll_core.Onll.op_id * int) list;
    scrub : unit -> unit;
    degraded : unit -> bool;
    log_fill : unit -> float;
    compact : unit -> unit;
    relaxed : relaxed option;
    txn : txn option;
  }

  let engine : engine -> (module C) = function
    | `Plain -> (module Onll_core.Onll.Make (M) (S))
    | `Wait_free -> (module Onll_core.Onll.Make_wait_free (M) (S))
    | `Batched -> (module Onll_core.Onll.Make_combining (M) (S))

  let over (type a) (module C : C with type t = a) (obj : a) =
    {
      update = C.update obj;
      update_detectable = C.update_detectable obj;
      read = C.read obj;
      was_linearized = (fun _ id -> C.was_linearized obj id);
      shard_of = (fun _ -> 0);
      recover_report = (fun () -> C.recover_report obj);
      recover_unhardened = (fun () -> C.recover_unhardened obj);
      recovered_ops =
        (fun () ->
          List.map (fun (id, idx) -> (0, id, idx)) (C.recovered_ops obj));
      scrub = (fun () -> ignore (C.scrub obj));
      degraded = (fun () -> C.degraded obj);
      log_fill = (fun () -> C.log_fill obj);
      compact = (fun () -> ignore (C.compact obj : int));
      relaxed = None;
      txn = None;
    }

  let over_sharded (type a) (module Sh : SH with type t = a) (obj : a) =
    {
      update = Sh.update obj;
      update_detectable = Sh.update_detectable obj;
      read = Sh.read obj;
      was_linearized = Sh.was_linearized obj;
      shard_of = Sh.shard_of_update obj;
      recover_report = (fun () -> Sh.recover_report obj);
      recover_unhardened = (fun () -> Sh.recover_unhardened obj);
      recovered_ops = (fun () -> Sh.recovered_ops obj);
      scrub = (fun () -> ignore (Sh.scrub obj));
      degraded = (fun () -> Sh.degraded obj);
      log_fill = (fun () -> Sh.log_fill obj);
      compact = (fun () -> ignore (Sh.compact obj : int));
      relaxed = None;
      txn = None;
    }

  let build_front cfg = function
    | Bare e ->
        let module C = (val engine e) in
        over (module C) (C.make cfg)
    | Sharded (e, shards) ->
        let module C = (val engine e) in
        let module Sh = Onll_sharded.Make_over (M) (S) (C) in
        over_sharded (module Sh) (Sh.make ~shards cfg)
    | Relaxed (e, k) ->
        let module C = (val engine e) in
        let obj = C.make cfg in
        {
          (over (module C) obj) with
          update = (fun op -> snd (C.update_stale obj ~budget:k op));
          relaxed =
            Some
              {
                update_strict = C.update obj;
                update_stale =
                  (fun ~budget op ->
                    C.update_stale obj ~budget:(min budget k) op);
                flush = (fun () -> C.flush obj);
                pending_ops = (fun () -> C.pending_ops obj);
              };
        }

  (* The front as a session backend: its durable update returns only
     after its fence (on the relaxed front, the engine's own update). *)
  let backend o =
    {
      Onll_session.b_update =
        (match o.relaxed with
        | Some r -> r.update_strict
        | None -> o.update);
      b_read = o.read;
      b_degraded = o.degraded;
      b_pressure = o.log_fill;
      b_compact = o.compact;
    }
end

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) = struct
  include Front (M) (S)
  module Ct = Onll_core.Client_table.Make (S)
  module Tf = Front (M) (Ct)
  module Sess = Onll_session.Make (S)

  let inner_value = function
    | Ct.Value v -> v
    | Ct.Duplicate | Ct.Last_seq _ -> invalid_arg "Onll_stack: not a value"

  (* A session stack: the front over the client table, seen as an object
     over [S]. Each process submits through its own session, attached (one
     fence-free read of its entry) at its first submission after the
     build, a recovery or a detectable update that moved its entry. *)
  let session_stack cfg f =
    let o = Tf.build_front cfg f in
    let b = Tf.backend o in
    let sessions = Array.make M.max_processes None in
    let admission = Onll_core.Admission.create ~watermark:1.0 in
    let sink = cfg.Onll_core.Onll.Config.sink in
    let session p =
      match sessions.(p) with
      | Some s -> s
      | None ->
          let s = Sess.attach ~sink ~admission ~client:p b in
          sessions.(p) <- Some s;
          s
    in
    let detach f () =
      Array.fill sessions 0 M.max_processes None;
      f ()
    in
    {
      update =
        (fun op ->
          match Sess.submit (session (M.self ())) op with
          | Ok (Sess.Applied v) -> v
          | Ok Sess.Duplicate ->
              failwith
                "Onll_stack: an earlier in-doubt submission had applied; \
                 this one was not"
          | Error e ->
              failwith
                (Format.asprintf "Onll_stack: session refused (%a)"
                   Onll_session.pp_error e));
      update_detectable =
        (fun ~seq op ->
          let p = M.self () in
          sessions.(p) <- None;
          match
            b.Onll_session.b_update (Ct.Tracked { client = p; seq; op })
          with
          | Ct.Value v -> v
          | Ct.Duplicate | Ct.Last_seq _ ->
              invalid_arg
                "Onll_stack.update_detectable: sequence number reused");
      read = (fun r -> inner_value (o.Tf.read (Ct.Inner r)));
      was_linearized =
        (fun _ id ->
          match o.Tf.read (Ct.Last id.Onll_core.Onll.id_proc) with
          | Ct.Last_seq (Some last) -> id.Onll_core.Onll.id_seq <= last
          | Ct.Last_seq None | Ct.Value _ | Ct.Duplicate -> false);
      shard_of = (fun op -> o.Tf.shard_of (Ct.Untracked op));
      recover_report = detach o.Tf.recover_report;
      recover_unhardened = detach o.Tf.recover_unhardened;
      recovered_ops = o.Tf.recovered_ops;
      scrub = o.Tf.scrub;
      degraded = o.Tf.degraded;
      log_fill = o.Tf.log_fill;
      compact = o.Tf.compact;
      relaxed = None;
      txn = None;
    }

  let build stack cfg =
    let cfg = { cfg with Onll_core.Onll.Config.replicas = stack.replicas } in
    match stack.top with
    | Direct f -> build_front cfg f
    | Session f -> session_stack cfg f
    | Txn shards ->
        let module Tx = Onll_txn.Make (M) (S) in
        let obj = Tx.make ~shards cfg in
        {
          (over_sharded (module Tx.Sh) (Tx.sharded obj)) with
          (* a one-operation transaction takes the sharded fast path *)
          update = (fun op -> List.hd (Tx.txn obj [ op ]));
          recover_report = (fun () -> Tx.recover_report obj);
          recover_unhardened = (fun () -> Tx.recover_unhardened obj);
          scrub = (fun () -> ignore (Tx.scrub obj));
          degraded = (fun () -> Tx.degraded obj);
          compact = (fun () -> Tx.compact obj);
          txn =
            Some
              {
                txn = Tx.txn obj;
                txn_detectable = Tx.txn_detectable obj;
                txn_was_committed = Tx.txn_was_committed obj;
                committed_txns = (fun () -> Tx.committed_txns obj);
              };
        }
end
