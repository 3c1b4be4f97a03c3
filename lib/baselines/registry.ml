(** Name-indexed construction of every benchmarked implementation.

    The CLI, the lower-bound adversary and the fence audit all need "build
    implementation [name] on a fresh simulated machine and hand me opaque
    update/read thunks" — previously each had its own copy of the
    many-armed match. This registry is that match, once: {!Make.build}
    instantiates the requested implementation over a fresh {!Sim.t} (the
    given sink installed both in the machine and in the object, so machine
    and object events interleave on one logical clock) and hides the
    functor plumbing behind closures. Composition — mirrored logs, shard
    routing, session fronting, group commit — is one {!options} record
    instead of an optional argument per axis. *)

type handle = {
  sim : Onll_machine.Sim.t;
  sink : Onll_obs.Sink.t;
  update : unit -> unit;
      (** one update by the calling (scheduled) process *)
  read : unit -> unit;  (** one read-only operation *)
  scrub : (unit -> unit) option;
      (** one cooperative online-scrub step; [None] for implementations
          without one (everything but the ONLL family) *)
  recover : (unit -> Onll_core.Onll.Recovery_report.t) option;
      (** hardened post-crash recovery; [None] for implementations
          without one (everything but the ONLL family) *)
}

type options = {
  log_capacity : int;
  state_capacity : int;
  shards : int;
  replicas : int;
  batched : bool;
  session : bool;
  local_views : bool;
  wait_free : bool;
  txn : bool;
  relaxed : bool;
  risk_budget : int;
}

let default_options =
  {
    log_capacity = 1 lsl 16;
    state_capacity = 4096;
    shards = 1;
    replicas = 1;
    batched = false;
    session = false;
    local_views = false;
    wait_free = false;
    txn = false;
    relaxed = false;
    risk_budget = 8;
  }

let pp_options ppf o =
  let d = default_options in
  let parts = ref [] in
  let p fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  if o.relaxed then p "relaxed(k=%d)" o.risk_budget;
  if o.txn then p "txn";
  if o.wait_free then p "wait-free";
  if o.local_views then p "views";
  if o.session then p "session";
  if o.batched then p "batched";
  if o.replicas <> d.replicas then p "replicas=%d" o.replicas;
  if o.shards <> d.shards then p "shards=%d" o.shards;
  if o.state_capacity <> d.state_capacity then
    p "state=%dB" o.state_capacity;
  if o.log_capacity <> d.log_capacity then p "log=%dB" o.log_capacity;
  match !parts with
  | [] -> Format.pp_print_string ppf "defaults"
  | parts -> Format.pp_print_string ppf (String.concat " " parts)

let names =
  [
    "onll";
    "onll+views";
    "onll-wait-free";
    "onll-mirrored";
    "onll-sharded";
    "onll-session";
    "onll-batched";
    "onll-txn";
    "onll-relaxed";
    "persist-on-read";
    "shadow";
    "flat-combining";
    "volatile";
  ]

(* What a family name implies, applied on top of the caller's record —
   ["onll-mirrored"] with [{ o with batched = true }] is the mirrored
   group-commit object, uniformly for every caller. *)
let family name o =
  match name with
  | "onll" -> Some o
  | "onll+views" | "views" -> Some { o with local_views = true }
  | "onll-wait-free" | "wait-free" -> Some { o with wait_free = true }
  | "onll-mirrored" | "mirrored" -> Some { o with replicas = max 2 o.replicas }
  | "onll-sharded" | "sharded" ->
      Some { o with shards = (if o.shards > 1 then o.shards else 4) }
  (* session and relaxed name unsharded families: a caller-supplied shard
     count (e.g. the CLI's --shards default, documented as ignored by
     non-sharded implementations) must not trip the composition guard *)
  | "onll-session" | "session" -> Some { o with session = true; shards = 1 }
  | "onll-batched" | "batched" -> Some { o with batched = true }
  | "onll-txn" | "txn" ->
      Some
        {
          o with
          txn = true;
          shards = (if o.shards > 1 then o.shards else 4);
        }
  | "onll-relaxed" | "relaxed" -> Some { o with relaxed = true; shards = 1 }
  | _ -> None

let recovery_capable =
  List.filter (fun n -> family n default_options <> None) names

module Make (S : Onll_core.Spec.S) = struct
  module type C =
    Onll_core.Onll.CONSTRUCTION
      with type state = S.state
       and type update_op = S.update_op
       and type read_op = S.read_op
       and type value = S.value

  let build ?(sink = Onll_obs.Sink.null) ?(options = default_options)
      ~max_processes ~gen_update ~gen_read name =
    let fresh_sim () = Onll_machine.Sim.create ~sink ~max_processes () in
    let onll o =
      if o.batched && o.wait_free then
        invalid_arg "Registry.build: batched and wait_free are exclusive";
      if o.session && o.shards > 1 then
        invalid_arg "Registry.build: session composes over an unsharded object";
      if o.txn && (o.batched || o.session || o.wait_free) then
        invalid_arg
          "Registry.build: txn composes over the plain sharded construction";
      if o.relaxed && (o.batched || o.session || o.txn || o.shards > 1) then
        invalid_arg
          "Registry.build: relaxed composes over the plain (optionally \
           mirrored or wait-free) construction";
      let sim = fresh_sim () in
      let module M = (val Onll_machine.Sim.machine sim) in
      let cfg =
        {
          Onll_core.Onll.Config.log_capacity = o.log_capacity;
          replicas = o.replicas;
          local_views = o.local_views;
          region_suffix = "";
          sink;
        }
      in
      let base : (module C) =
        if o.batched then (module Onll_batched.Make (M) (S))
        else if o.wait_free then (module Onll_core.Onll.Make_wait_free (M) (S))
        else (module Onll_core.Onll.Make (M) (S))
      in
      let module C = (val base) in
      if o.relaxed then begin
        (* The E20 bounded-staleness wrapper: updates ack fence-free into
           a risk-budgeted tail, one lazy fence drains it — the E1 audit
           row asserts strictly sub-1 fences per update, reads still
           free. *)
        let module TC =
          (val (if o.wait_free then
                  (module Onll_core.Onll.Make_wait_free (M) (S)
                  : Onll_core.Onll.TXN_CAPABLE
                    with type state = S.state
                     and type update_op = S.update_op
                     and type read_op = S.read_op
                     and type value = S.value)
                else (module Onll_core.Onll.Make (M) (S))))
        in
        let module R = Onll_relaxed.Make_over (M) (S) (TC) in
        let obj =
          R.attach ~max_unfenced_ops:o.risk_budget cfg (TC.make cfg)
        in
        {
          sim;
          sink;
          update = (fun () -> ignore (R.update obj (gen_update ())));
          read = (fun () -> ignore (R.read obj (gen_read ())));
          scrub = Some (fun () -> ignore (R.scrub obj));
          recover = Some (fun () -> R.recover_report obj);
        }
      end
      else if o.txn then begin
        (* The E19 transactional object. Its single-operation path is a
           plain sharded update (the fast path), which is exactly what
           the E1 audit row asserts: one fence per update, zero on reads
           — transactions only ever {e reduce} the per-op fence count. *)
        let module Tx = Onll_txn.Make (M) (S) in
        let obj = Tx.make ~shards:o.shards cfg in
        {
          sim;
          sink;
          update = (fun () -> ignore (Tx.txn obj [ gen_update () ]));
          read = (fun () -> ignore (Tx.read obj (gen_read ())));
          scrub = Some (fun () -> ignore (Tx.scrub obj));
          recover = Some (fun () -> Tx.recover_report obj);
        }
      end
      else if o.session then begin
        (* The object behind durable per-client sessions (E15): every
           update is an exactly-once [Onll_session.submit]. Sessions are
           attached eagerly, one per process, because region creation must
           happen once (outside any run); the E1 audit uses this arm to
           assert the session adds exactly one fence (its client-record
           append) on top of the object's own cost. *)
        let obj = C.make cfg in
        let module Sess = Onll_session.Make (M) (S) in
        let module Over = Sess.Over (C) in
        let backend = Over.backend obj in
        let config =
          {
            Onll_session.default_config with
            log_capacity = 16384;
            high_watermark = 1.0;
          }
        in
        let sessions =
          Array.init max_processes (fun client ->
              Sess.attach ~config ~sink ~client backend)
        in
        {
          sim;
          sink;
          update =
            (fun () ->
              ignore (Sess.submit sessions.(M.self ()) (gen_update ())));
          read =
            (fun () -> ignore (Sess.read sessions.(M.self ()) (gen_read ())));
          scrub = Some (fun () -> ignore (C.scrub obj));
          recover = Some (fun () -> C.recover_report obj);
        }
      end
      else if o.shards > 1 then begin
        let module Sh = Onll_sharded.Make_over (M) (S) (C) in
        let obj = Sh.make ~shards:o.shards cfg in
        {
          sim;
          sink;
          update = (fun () -> ignore (Sh.update obj (gen_update ())));
          read = (fun () -> ignore (Sh.read obj (gen_read ())));
          scrub = Some (fun () -> ignore (Sh.scrub obj));
          recover = Some (fun () -> Sh.recover_report obj);
        }
      end
      else begin
        let obj = C.make cfg in
        {
          sim;
          sink;
          update = (fun () -> ignore (C.update obj (gen_update ())));
          read = (fun () -> ignore (C.read obj (gen_read ())));
          scrub = Some (fun () -> ignore (C.scrub obj));
          recover = Some (fun () -> C.recover_report obj);
        }
      end
    in
    match family name options with
    | Some o -> Some (onll o)
    | None -> (
        match name with
        | "persist-on-read" ->
            let sim = fresh_sim () in
            let module M = (val Onll_machine.Sim.machine sim) in
            let module P = Persist_on_read.Make (M) (S) in
            let obj = P.create ~log_capacity:options.log_capacity ~sink () in
            Some
              {
                sim;
                sink;
                update = (fun () -> ignore (P.update obj (gen_update ())));
                read = (fun () -> ignore (P.read obj (gen_read ())));
                scrub = None;
                recover = None;
              }
        | "shadow" ->
            let sim = fresh_sim () in
            let module M = (val Onll_machine.Sim.machine sim) in
            let module H = Shadow.Make (M) (S) in
            let obj =
              H.create ~state_capacity:options.state_capacity ~sink ()
            in
            Some
              {
                sim;
                sink;
                update = (fun () -> ignore (H.update obj (gen_update ())));
                read = (fun () -> ignore (H.read obj (gen_read ())));
                scrub = None;
                recover = None;
              }
        | "flat-combining" ->
            let sim = fresh_sim () in
            let module M = (val Onll_machine.Sim.machine sim) in
            let module F = Flat_combining.Make (M) (S) in
            let obj = F.create ~log_capacity:options.log_capacity ~sink () in
            Some
              {
                sim;
                sink;
                update = (fun () -> ignore (F.update obj (gen_update ())));
                read = (fun () -> ignore (F.read obj (gen_read ())));
                scrub = None;
                recover = None;
              }
        | "volatile" ->
            let sim = fresh_sim () in
            let module M = (val Onll_machine.Sim.machine sim) in
            let module V = Volatile.Make (M) (S) in
            let obj = V.create ~sink () in
            Some
              {
                sim;
                sink;
                update = (fun () -> ignore (V.update obj (gen_update ())));
                read = (fun () -> ignore (V.read obj (gen_read ())));
                scrub = None;
                recover = None;
              }
        | _ -> None)
end
