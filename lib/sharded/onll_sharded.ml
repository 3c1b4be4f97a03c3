(** Sharded ONLL (see onll_sharded.mli). *)

(* Duplicated (condensed) from onll_sharded.mli, which carries the
   documentation. *)
module type SHARDED = sig
  module Shard : Onll_core.Onll.CONSTRUCTION

  type t

  val make : shards:int -> Onll_core.Onll.Config.t -> t

  val create :
    ?shards:int -> ?log_capacity:int -> unit -> t

  val shards : t -> int
  val sink : t -> Onll_obs.Sink.t
  val shard : t -> int -> Shard.t
  val shard_of_update : t -> Shard.update_op -> int
  val participants : t -> Shard.update_op list -> int list
  val update : t -> Shard.update_op -> Shard.value
  val update_with_id : t -> Shard.update_op -> Onll_core.Onll.op_id * Shard.value
  val update_detectable : t -> seq:int -> Shard.update_op -> Shard.value
  val read : t -> Shard.read_op -> Shard.value
  val recover : t -> unit
  val recover_report : t -> Onll_core.Onll.Recovery_report.t
  val recover_reports : t -> Onll_core.Onll.Recovery_report.t list
  val recover_unhardened : t -> unit
  val scrub : t -> Onll_plog.Plog.scrub_report
  val degraded : t -> bool
  val was_linearized : t -> Shard.update_op -> Onll_core.Onll.op_id -> bool
  val recovered_ops : t -> (int * Onll_core.Onll.op_id * int) list
  val compact : t -> int
  val snapshot : t -> Onll_core.Onll.Snapshot.t
  val log_fill : t -> float
end

module Make_over
    (M : Onll_machine.Machine_sig.S)
    (S : Onll_core.Spec.S)
    (C : Onll_core.Onll.CONSTRUCTION
           with type state = S.state
            and type update_op = S.update_op
            and type read_op = S.read_op
            and type value = S.value) =
struct
  module Shard = C

  type t = {
    insts : Shard.t array;
    n : int;
    t_sink : Onll_obs.Sink.t;
    (* per-shard routed-op counters ["shard.<i>.ops"], resolved once *)
    c_shard_ops : Onll_obs.Metrics.counter array;
  }

  let make ~shards cfg =
    if shards < 1 then
      invalid_arg (Printf.sprintf "Onll_sharded.make: shards = %d" shards);
    let sink = cfg.Onll_core.Onll.Config.sink in
    let registry = Onll_obs.Sink.registry sink in
    {
      insts =
        Array.init shards (fun i ->
            Shard.make
              {
                cfg with
                Onll_core.Onll.Config.region_suffix =
                  Printf.sprintf "%s.s%d"
                    cfg.Onll_core.Onll.Config.region_suffix i;
              });
      n = shards;
      t_sink = sink;
      c_shard_ops =
        Array.init shards (fun i ->
            Onll_obs.Metrics.counter registry
              (Printf.sprintf "shard.%d.ops" i));
    }

  let create ?(shards = 4) ?log_capacity () =
    let d = Onll_core.Onll.Config.default in
    make ~shards
      { d with log_capacity = Option.value log_capacity ~default:d.log_capacity }

  let shards t = t.n
  let sink t = t.t_sink

  let shard t i =
    if i < 0 || i >= t.n then
      invalid_arg (Printf.sprintf "Onll_sharded.shard: %d (of %d)" i t.n);
    t.insts.(i)

  let shard_of_update t op = S.shard_of_update ~shards:t.n op

  (* The multi-shard routing question a transaction coordinator (E19)
     asks before anything runs: which shards does this operation list
     touch? Pure, like the router it is built on. *)
  let participants t ops =
    List.sort_uniq compare (List.map (shard_of_update t) ops)

  let route_update t op =
    let s = shard_of_update t op in
    Onll_obs.Metrics.incr t.c_shard_ops.(s);
    Onll_obs.Sink.emit t.t_sink ~proc:(M.self ())
      (Onll_obs.Event.Route { shard = s; global = false });
    s

  let update t op = Shard.update t.insts.(route_update t op) op
  let update_with_id t op = Shard.update_with_id t.insts.(route_update t op) op

  let update_detectable t ~seq op =
    Shard.update_detectable t.insts.(route_update t op) ~seq op

  let read t op =
    match S.shard_of_read ~shards:t.n op with
    | Some s ->
        Onll_obs.Metrics.incr t.c_shard_ops.(s);
        Onll_obs.Sink.emit t.t_sink ~proc:(M.self ())
          (Onll_obs.Event.Route { shard = s; global = false });
        Shard.read t.insts.(s) op
    | None ->
        Onll_obs.Sink.emit t.t_sink ~proc:(M.self ())
          (Onll_obs.Event.Route { shard = t.n; global = true });
        S.merge_read op
          (Array.to_list (Array.map (fun c -> Shard.read c op) t.insts))

  let recover t = Array.iter Shard.recover t.insts
  let recover_reports t = Array.to_list (Array.map Shard.recover_report t.insts)

  let recover_report t =
    Onll_core.Onll.Recovery_report.merge (recover_reports t)

  let recover_unhardened t = Array.iter Shard.recover_unhardened t.insts

  let scrub t =
    Array.fold_left
      (fun acc c -> Onll_plog.Plog.add_scrub acc (Shard.scrub c))
      Onll_plog.Plog.clean_scrub t.insts

  let degraded t = Array.exists Shard.degraded t.insts
  let was_linearized t op id = Shard.was_linearized t.insts.(shard_of_update t op) id

  let recovered_ops t =
    List.concat
      (List.mapi
         (fun s c -> List.map (fun (id, idx) -> (s, id, idx)) (Shard.recovered_ops c))
         (Array.to_list t.insts))

  let compact t =
    Array.fold_left (fun acc c -> acc + Shard.compact c) 0 t.insts

  let snapshot t =
    let snaps = Array.to_list (Array.map Shard.snapshot t.insts) in
    {
      Onll_core.Onll.Snapshot.latest_available_idx =
        List.fold_left
          (fun a s -> a + s.Onll_core.Onll.Snapshot.latest_available_idx)
          0 snaps;
      max_fuzzy_window =
        List.fold_left
          (fun a s -> max a s.Onll_core.Onll.Snapshot.max_fuzzy_window)
          0 snaps;
      degraded =
        List.exists (fun s -> s.Onll_core.Onll.Snapshot.degraded) snaps;
      logs = List.concat_map (fun s -> s.Onll_core.Onll.Snapshot.logs) snaps;
    }

  let log_fill t =
    Array.fold_left (fun acc c -> Float.max acc (Shard.log_fill c)) 0. t.insts
end

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) =
  Make_over (M) (S) (Onll_core.Onll.Make (M) (S))
