(* The compaction property (paper §8: checkpoints plus trace pruning bound
   both the log and memory), over one engine and one specification. With
   no explicit checkpoint, updates run through a log sized to four times
   the checkpoint of the live state until [capacities] log capacities'
   worth of bytes were appended, and the run asserts:
   - no [Log_full];
   - state encodes <= compactions + one per log (a log with no checkpoint
     yet measures the state once before its first compaction);
   - reachable trace nodes <= operations since the last checkpoint +
     [procs], checked between rounds;
   - [was_linearized] holds for every acknowledged id, live and after a
     crash and recovery.
   [run] raises [Failure] naming the first violation; [served_live_words]
   measures the heap of a server running the same compaction, and
   [idle_wait_free_live_words] that of a wait-free object with an idle
   process. *)

open Onll_machine
module Onll = Onll_core.Onll

type engine = Plain | Wait_free | Batched

let engines = [ Plain; Wait_free; Batched ]

let engine_name = function
  | Plain -> "plain"
  | Wait_free -> "wait-free"
  | Batched -> "batched"

(* A specification with a deterministic update stream whose live state
   stays bounded. *)
type workload =
  | W :
      string
      * (module Onll_core.Spec.S with type update_op = 'u)
      * (int -> 'u)
      -> workload

let workload_name (W (name, _, _)) = name

(* A scrambled key index, so keys are not hit in round-robin order. *)
let scramble i = i * 0x9E3779B1 land 0x3FFFFFFF

let counter =
  W ("counter", (module Onll_specs.Counter), fun _ -> Onll_specs.Counter.Increment)

let queue =
  W
    ( "queue",
      (module Onll_specs.Queue_spec),
      fun i ->
        (* sixteen items, then one in, one out *)
        if i < 16 || i mod 2 = 0 then Onll_specs.Queue_spec.Enqueue i
        else Onll_specs.Queue_spec.Dequeue )

let ledger =
  let acct i = Printf.sprintf "a%d" (i mod 8) in
  W
    ( "ledger",
      (module Onll_specs.Ledger),
      fun i ->
        if i < 8 then Onll_specs.Ledger.Open (acct i)
        else if i mod 2 = 0 then Onll_specs.Ledger.Deposit (acct i, 1)
        else Onll_specs.Ledger.Transfer (acct i, acct (i + 3), 1) )

(* [Put]s of one-byte values over [keys] keys. *)
let kv_put keys i =
  Onll_specs.Kv.Put (Printf.sprintf "k%d" (scramble i mod keys), "v")

let kv keys = W (Printf.sprintf "kv-%d" keys, (module Onll_specs.Kv), kv_put keys)

let workloads = [ counter; queue; ledger; kv 1; kv 5; kv 50; kv 2000 ]

(* A specification that counts its state encodes. *)
module Counting (S : Onll_core.Spec.S) = struct
  include S

  let encodes = ref 0

  let state_codec =
    Onll_util.Codec.map Fun.id
      (fun s ->
        incr encodes;
        s)
      S.state_codec
end

(* Four times the checkpoint of the state the stream settles at: the
   encoded state after [4 * warm] updates plus the checkpoint record's
   own framing and per-process floors. *)
let log_capacity (W (_, (module S), op)) ~procs =
  let warm = 8000 in
  let st = ref S.initial in
  for i = 0 to warm - 1 do
    st := fst (S.apply !st (op i))
  done;
  4
  * (64 + (8 * procs)
    + String.length (Onll_util.Codec.encode S.state_codec !st))

let failf fmt = Printf.ksprintf failwith fmt

let run ?(procs = 2) ~capacities engine (W (name, (module S0), op) as w) =
  let module S = Counting (S0) in
  let what = Printf.sprintf "%s/%s" (engine_name engine) name in
  let capacity = log_capacity w ~procs in
  let compactions = ref 0 and last_upto = ref 0 and appended = ref 0 in
  let handler (e : Onll_obs.Event.t) =
    match e.Onll_obs.Event.kind with
    | Onll_obs.Event.Checkpoint { upto } ->
        incr compactions;
        last_upto := max !last_upto upto
    | Onll_obs.Event.Log_append { bytes; _ } ->
        appended := !appended + bytes
    | _ -> ()
  in
  let sink = Onll_obs.Sink.make ~handler () in
  let sim = Sim.create ~sink ~max_processes:procs () in
  let module M = (val Sim.machine sim) in
  let module C =
    (val match engine with
         | Plain -> (module Onll.Make (M) (S))
         | Wait_free -> (module Onll.Make_wait_free (M) (S))
         | Batched -> (module Onll.Make_combining (M) (S))
        : Onll.CONSTRUCTION
        with type update_op = S.update_op)
  in
  let obj =
    C.make
      { Onll.Config.default with log_capacity = capacity; sink }
  in
  let next = ref 0 and acked = ref [] and failure = ref None in
  let body _ =
    for _ = 1 to 8 do
      let k = !next in
      incr next;
      match C.update_with_id obj (op k) with
      | id, _ -> acked := id :: !acked
      | exception Onll.Log_full log ->
          if !failure = None then
            failure := Some (Printf.sprintf "Log_full on %s after %d updates" log k)
    done
  in
  while !appended < capacities * capacity * procs && !failure = None do
    (match Sim.run sim Onll_sched.Sched.Strategy.round_robin (Array.make procs body) with
    | Onll_sched.Sched.World.Completed -> ()
    | _ -> failf "%s: a round did not complete" what);
    Option.iter (failf "%s: %s" what) !failure;
    let nodes =
      List.length
        (List.filter (fun (_, _, e) -> e <> None) (C.trace_nodes obj))
    in
    if nodes > !next - !last_upto + procs then
      failf "%s: %d trace nodes after %d updates, last checkpoint at %d"
        what nodes !next !last_upto
  done;
  if !compactions = 0 then failf "%s: no compaction ran" what;
  if !S.encodes > !compactions + procs then
    failf "%s: %d state encodes for %d compactions" what !S.encodes
      !compactions;
  let all_linearized stage ids =
    List.iter
      (fun id ->
        if not (C.was_linearized obj id) then
          failf "%s: acknowledged %s not linearized %s" what
            (Format.asprintf "%a" Onll.pp_op_id id)
            stage)
      ids
  in
  all_linearized "live" !acked;
  Onll_nvm.Memory.crash (Sim.memory sim) ~policy:Onll_nvm.Crash_policy.Drop_all;
  C.recover obj;
  all_linearized "after recovery" !acked

(* The heap half, served: two exactly-once clients of an in-process
   [Service] on the native machine each submit up to every count in
   [upto] in turn (ascending), and the live words after a heap compaction
   are returned for each. The service admits [max_clients] (default 2,
   the two that submit), and its object log holds three full-table
   checkpoints besides the default 64 KiB of room (48 B a client), so a
   larger client range compacts the log more rarely. The trace is pruned
   on its own cadence ({!Onll_core.Onll.prune_every}), so its share of
   the live words follows the state; the log's in-memory account of its
   live records still follows the log's room. The service stays reachable
   until the last measurement, and its counter must equal every
   submit. *)
let served_live_words ?(max_clients = 2) upto =
  let nat = Native.create ~fence_ns:0 ~max_processes:1 () in
  ignore (Native.register nat);
  let module M = (val Native.machine nat) in
  let module Svc = Onll_serve.Service.Make (M) in
  let module Protocol = Onll_serve.Protocol in
  let t = Svc.make ~max_clients Onll_serve.Service.Plain in
  let op =
    Onll_util.Codec.encode Onll_specs.Counter.update_codec
      Onll_specs.Counter.Increment
  in
  let conns = Array.init 2 (fun _ -> Svc.conn ()) in
  Array.iteri
    (fun client conn ->
      match
        Svc.handle t conn
          (Protocol.Hello
             { client; token = "onll"; tier = Protocol.T_exactly_once })
      with
      | Protocol.Attached _ -> ()
      | _ -> failf "served: client %d not attached" client)
    conns;
  let next = ref 0 in
  let words =
    List.map
      (fun n ->
        for seq = !next to n - 1 do
          Array.iter
            (fun conn ->
              match
                Svc.handle t conn (Protocol.Submit { seq; deadline_ns = 0; op })
              with
              | Protocol.Acked _ -> ()
              | _ -> failf "served: seq %d not acked" seq)
            conns
        done;
        next := n;
        Gc.compact ();
        (Gc.stat ()).Gc.live_words)
      upto
  in
  if Svc.counter_value t <> 2 * !next then
    failf "served: counter %d after %d submits" (Svc.counter_value t)
      (2 * !next);
  words

(* The heap half on the wait-free engine, with an idle process: process 0
   makes one update and then idles while process 1 updates up to every
   count in [upto] (ascending), in rounds of a thousand on the simulated
   machine, and the live words after a heap compaction are returned for
   each. Nothing process 0 left behind — its request slot, its trace
   cursor, the state it published — may pin the trace from its one node
   on; with [~reads], process 0 also reads once before it idles, so its
   cursor sits on the cell it computed a state at. The counter must equal
   every update. *)
let idle_wait_free_live_words ~reads upto =
  let module Cs = Onll_specs.Counter in
  let sim = Sim.create ~max_processes:2 () in
  let module M = (val Sim.machine sim) in
  let module C = Onll.Make_wait_free (M) (Cs) in
  let obj = C.make Onll.Config.default in
  let run p0 p1 =
    match Sim.run sim Onll_sched.Sched.Strategy.round_robin [| p0; p1 |] with
    | Onll_sched.Sched.World.Completed -> ()
    | _ -> failf "idle wait-free: a round did not complete"
  in
  let idle _ = () in
  run
    (fun _ ->
      ignore (C.update obj Cs.Increment);
      if reads then ignore (C.read obj Cs.Get))
    idle;
  let next = ref 0 in
  let words =
    List.map
      (fun n ->
        while !next < n do
          let k = min 1000 (n - !next) in
          run idle (fun _ ->
              for _ = 1 to k do
                ignore (C.update obj Cs.Increment)
              done);
          next := !next + k
        done;
        Gc.compact ();
        (Gc.stat ()).Gc.live_words)
      upto
  in
  if C.read obj Cs.Get <> 1 + !next then
    failf "idle wait-free: counter %d after %d updates" (C.read obj Cs.Get)
      (1 + !next);
  words
