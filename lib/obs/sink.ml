(** Event sinks (see sink.mli). *)

type t = {
  s_active : bool;
  mutable clock : int;
  s_registry : Metrics.t;
  handler : (Event.t -> unit) option;
  (* Event-derived counters, resolved once at sink construction so [emit]
     performs no name lookups. *)
  c_fences : Metrics.counter;
  c_pfences : Metrics.counter;
  c_flushes : Metrics.counter;
  c_flush_lines : Metrics.counter;
  c_cas_retries : Metrics.counter;
  c_help_events : Metrics.counter;
  c_help_ops : Metrics.counter;
  c_checkpoints : Metrics.counter;
  c_recoveries : Metrics.counter;
  c_recovered_ops : Metrics.counter;
  c_crashes : Metrics.counter;
  c_log_appends : Metrics.counter;
  c_log_bytes : Metrics.counter;
  c_log_compactions : Metrics.counter;
  c_log_dropped : Metrics.counter;
  c_faults : Metrics.counter;
  c_retries : Metrics.counter;
  c_salvages : Metrics.counter;
  c_salvage_quarantined : Metrics.counter;
  c_salvage_bytes_lost : Metrics.counter;
  c_recovery_interruptions : Metrics.counter;
  c_repairs : Metrics.counter;
  c_repair_entries : Metrics.counter;
  c_repair_bytes : Metrics.counter;
  c_scrubs : Metrics.counter;
  c_scrub_entries : Metrics.counter;
  c_scrub_repaired : Metrics.counter;
  c_scrub_unrepairable : Metrics.counter;
  c_routes : Metrics.counter;
  c_routes_global : Metrics.counter;
  c_session_ops : Metrics.counter;
  c_session_ok : Metrics.counter;
  c_session_duplicates : Metrics.counter;
  c_session_in_doubt : Metrics.counter;
  c_session_sheds : Metrics.counter;
  c_session_refused : Metrics.counter;
  c_txns : Metrics.counter;
  c_txn_subops : Metrics.counter;
}

let build ~active ~registry ~handler =
  {
    s_active = active;
    clock = 0;
    s_registry = registry;
    handler;
    c_fences = Metrics.counter registry "fences.total";
    c_pfences = Metrics.counter registry "fences.persistent";
    c_flushes = Metrics.counter registry "flushes";
    c_flush_lines = Metrics.counter registry "flushes.lines";
    c_cas_retries = Metrics.counter registry "cas.retries";
    c_help_events = Metrics.counter registry "help.events";
    c_help_ops = Metrics.counter registry "help.ops";
    c_checkpoints = Metrics.counter registry "checkpoints";
    c_recoveries = Metrics.counter registry "recoveries";
    c_recovered_ops = Metrics.counter registry "recovery.ops";
    c_crashes = Metrics.counter registry "crashes";
    c_log_appends = Metrics.counter registry "log.appends";
    c_log_bytes = Metrics.counter registry "log.bytes";
    c_log_compactions = Metrics.counter registry "log.compactions";
    c_log_dropped = Metrics.counter registry "log.dropped_entries";
    c_faults = Metrics.counter registry "faults.injected";
    c_retries = Metrics.counter registry "retries";
    c_salvages = Metrics.counter registry "salvages";
    c_salvage_quarantined = Metrics.counter registry "salvage.quarantined";
    c_salvage_bytes_lost = Metrics.counter registry "salvage.bytes_lost";
    c_recovery_interruptions =
      Metrics.counter registry "recovery.interruptions";
    c_repairs = Metrics.counter registry "repairs";
    c_repair_entries = Metrics.counter registry "repair.entries";
    c_repair_bytes = Metrics.counter registry "repair.bytes";
    c_scrubs = Metrics.counter registry "scrubs";
    c_scrub_entries = Metrics.counter registry "scrub.entries";
    c_scrub_repaired = Metrics.counter registry "scrub.repaired";
    c_scrub_unrepairable = Metrics.counter registry "scrub.unrepairable";
    c_routes = Metrics.counter registry "routes";
    c_routes_global = Metrics.counter registry "routes.global";
    c_session_ops = Metrics.counter registry "session.ops";
    c_session_ok = Metrics.counter registry "session.ok";
    c_session_duplicates = Metrics.counter registry "session.duplicates";
    c_session_in_doubt = Metrics.counter registry "session.in_doubt";
    c_session_sheds = Metrics.counter registry "session.sheds";
    c_session_refused = Metrics.counter registry "session.refused";
    c_txns = Metrics.counter registry "txns";
    c_txn_subops = Metrics.counter registry "txn.subops";
  }

let make ?registry ?handler () =
  let registry =
    match registry with Some r -> r | None -> Metrics.create ()
  in
  build ~active:true ~registry ~handler

let null = build ~active:false ~registry:(Metrics.create ()) ~handler:None

let active t = t.s_active
let registry t = t.s_registry
let now t = t.clock

let emit t ~proc kind =
  if t.s_active then begin
    let time = t.clock in
    t.clock <- time + 1;
    (match kind with
    | Event.Fence { persistent } ->
        Metrics.incr t.c_fences;
        if persistent then Metrics.incr t.c_pfences
    | Event.Flush { lines } ->
        Metrics.incr t.c_flushes;
        Metrics.add t.c_flush_lines lines
    | Event.Cas_retry _ -> Metrics.incr t.c_cas_retries
    | Event.Help { helped } ->
        Metrics.incr t.c_help_events;
        Metrics.add t.c_help_ops helped
    | Event.Checkpoint _ -> Metrics.incr t.c_checkpoints
    | Event.Recovery { ops } ->
        Metrics.incr t.c_recoveries;
        Metrics.add t.c_recovered_ops ops
    | Event.Crash -> Metrics.incr t.c_crashes
    | Event.Log_append { bytes; _ } ->
        Metrics.incr t.c_log_appends;
        Metrics.add t.c_log_bytes bytes
    | Event.Log_compact { dropped; _ } ->
        Metrics.incr t.c_log_compactions;
        Metrics.add t.c_log_dropped dropped
    | Event.Fault_injected _ -> Metrics.incr t.c_faults
    | Event.Retry _ -> Metrics.incr t.c_retries
    | Event.Salvage { quarantined; bytes_lost; _ } ->
        Metrics.incr t.c_salvages;
        Metrics.add t.c_salvage_quarantined quarantined;
        Metrics.add t.c_salvage_bytes_lost bytes_lost
    | Event.Recovery_interrupted _ ->
        Metrics.incr t.c_recovery_interruptions
    | Event.Repair { entries; bytes; _ } ->
        Metrics.incr t.c_repairs;
        Metrics.add t.c_repair_entries entries;
        Metrics.add t.c_repair_bytes bytes
    | Event.Scrub { entries; repaired; unrepairable; _ } ->
        Metrics.incr t.c_scrubs;
        Metrics.add t.c_scrub_entries entries;
        Metrics.add t.c_scrub_repaired repaired;
        Metrics.add t.c_scrub_unrepairable unrepairable
    | Event.Route { global; _ } ->
        Metrics.incr t.c_routes;
        if global then Metrics.incr t.c_routes_global
    | Event.Session { outcome; _ } -> (
        Metrics.incr t.c_session_ops;
        match outcome with
        | Event.Sess_ok -> Metrics.incr t.c_session_ok
        | Event.Sess_duplicate -> Metrics.incr t.c_session_duplicates
        | Event.Sess_in_doubt -> Metrics.incr t.c_session_in_doubt
        | Event.Sess_shed -> Metrics.incr t.c_session_sheds
        | Event.Sess_refused -> Metrics.incr t.c_session_refused)
    | Event.Txn { ops; _ } ->
        Metrics.incr t.c_txns;
        Metrics.add t.c_txn_subops ops);
    match t.handler with
    | Some f -> f { Event.time; proc; kind }
    | None -> ()
  end

let recording ?registry () =
  let events = ref [] in
  let t = make ?registry ~handler:(fun e -> events := e :: !events) () in
  (t, fun () -> List.rev !events)
