(** Name-indexed construction of every benchmarked implementation.

    The CLI, the lower-bound adversary and the fence audit all need "build
    implementation [name] on a fresh simulated machine and hand me opaque
    update/read thunks" — previously each had its own copy of the
    many-armed match. This registry is that match, once: {!Make.build}
    instantiates the requested implementation over a fresh {!Sim.t} (the
    given sink installed both in the machine and in the object, so machine
    and object events interleave on one logical clock) and hides the
    functor plumbing behind closures. The ONLL family is built by
    {!Onll_stack.Make}: a family name is a stack, and ["onll"] builds
    whichever stack {!options} carries. *)

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
  stack : Onll_stack.t;
}

let default_options =
  { log_capacity = 1 lsl 16; state_capacity = 4096; stack = Onll_stack.plain }

let names =
  [
    "onll";
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

let family ?(shards = 4) name =
  let open Onll_stack in
  let direct front = { plain with top = Direct front } in
  match name with
  | "onll" -> Some plain
  | "onll-wait-free" | "wait-free" -> Some (direct (Bare `Wait_free))
  | "onll-mirrored" | "mirrored" -> Some { plain with replicas = 2 }
  | "onll-sharded" | "sharded" -> Some (direct (Sharded (`Plain, shards)))
  | "onll-session" | "session" -> Some { plain with top = Session (Bare `Plain) }
  | "onll-batched" | "batched" -> Some (direct (Bare `Batched))
  | "onll-txn" | "txn" -> Some { plain with top = Txn shards }
  | "onll-relaxed" | "relaxed" -> Some (direct (Relaxed (`Plain, 8)))
  | _ -> None

let recovery_capable = List.filter (fun n -> family n <> None) names

module Make (S : Onll_core.Spec.S) = struct
  let build ?(sink = Onll_obs.Sink.null) ?(options = default_options) ?shards
      ~max_processes ~gen_update ~gen_read name =
    let stack = if name = "onll" then Some options.stack else family ?shards name in
    let sim = Onll_machine.Sim.create ~sink ~max_processes () in
    let module M = (val Onll_machine.Sim.machine sim) in
    let handle ?scrub ?recover update read =
      Some
        {
          sim;
          sink;
          update = (fun () -> ignore (update (gen_update ())));
          read = (fun () -> ignore (read (gen_read ())));
          scrub;
          recover;
        }
    in
    match (stack, name) with
    | Some stack, _ ->
        let module B = Onll_stack.Make (M) (S) in
        let o =
          B.build stack
            {
              Onll_core.Onll.Config.default with
              log_capacity = options.log_capacity;
              sink;
            }
        in
        handle ~scrub:o.B.scrub ~recover:o.B.recover_report o.B.update o.B.read
    | None, "persist-on-read" ->
        let module P = Linearize_early.Make (M) (S) in
        let obj =
          P.create ~log_capacity:options.log_capacity ~sink
            Linearize_early.Help
        in
        handle (P.update obj) (P.read obj)
    | None, "shadow" ->
        let module H = Shadow.Make (M) (S) in
        let obj = H.create ~state_capacity:options.state_capacity ~sink () in
        handle (H.update obj) (H.read obj)
    | None, "flat-combining" ->
        let module F = Flat_combining.Make (M) (S) in
        let obj = F.create ~log_capacity:options.log_capacity ~sink () in
        handle (F.update obj) (F.read obj)
    | None, "volatile" ->
        let module V = Volatile.Make (M) (S) in
        let obj = V.create ~sink () in
        handle (V.update obj) (V.read obj)
    | None, _ -> None
end
