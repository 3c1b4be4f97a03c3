(** Structured observability events.

    The vocabulary of everything the stack reports while running: the
    machine layer emits {!Fence}, {!Flush} and {!Crash}; the persistent
    log emits {!Log_append} and {!Log_compact}; the execution traces emit
    {!Cas_retry} and (wait-free helping) {!Help}; the universal
    construction emits {!Help} (persist-stage helping), {!Checkpoint} and
    {!Recovery}; the fault-injection layer and the hardened recovery
    paths emit {!Fault_injected}, {!Retry}, {!Salvage} and
    {!Recovery_interrupted}. Every event carries the emitting process id and a
    logical timestamp stamped by the {!Sink} it is delivered to, so a
    single sink installed across components yields one totally ordered
    event stream. *)

(** How an exactly-once client session (E15) disposed of a submission. *)
type session_outcome =
  | Sess_ok  (** applied and acknowledged *)
  | Sess_duplicate
      (** the client table answered duplicate: an earlier try of this
          sequence number had applied; not applied again *)
  | Sess_in_doubt
      (** a transient fault escaped the object's update; resubmit under
          the same sequence number *)
  | Sess_shed  (** admission control refused before any durable work *)
  | Sess_refused  (** the object is degraded; writes are refused *)

type kind =
  | Fence of { persistent : bool }
      (** A fence instruction; [persistent] iff write-backs were pending. *)
  | Flush of { lines : int }
      (** Asynchronous write-backs issued for [lines] dirty cache lines. *)
  | Cas_retry of { site : string }
      (** A CAS lost a race and the operation retried, at [site]. *)
  | Help of { helped : int }
      (** The emitting process completed [helped] other processes' work
          (persist-stage fuzzy-window helping, or a wait-free trace
          insertion finished on a peer's behalf). *)
  | Checkpoint of { upto : int }
      (** History up to execution index [upto] was summarised (§8). *)
  | Recovery of { ops : int }
      (** Post-crash recovery re-installed [ops] operations. *)
  | Crash  (** Full-system crash: all volatile state lost. *)
  | Log_append of { log : string; bytes : int }
      (** One single-fence append of [bytes] payload bytes to [log]. *)
  | Log_compact of { log : string; dropped : int }
      (** [log]'s head durably advanced past [dropped] entries. *)
  | Fault_injected of { fault : string }
      (** The fault-injection layer perturbed the system: ["bitflip"],
          ["torn"], ["flush_transient"], ["fence_transient"] or
          ["recovery_crash"]. *)
  | Retry of { site : string; attempt : int }
      (** A component retried a transiently failed durable operation
          (bounded retry with backoff); [attempt] counts from 1. *)
  | Salvage of { log : string; quarantined : int; bytes_lost : int }
      (** Recovery of [log] skipped [quarantined] corrupt interior spans
          and/or truncated a torn tail, losing [bytes_lost] durable
          bytes. *)
  | Recovery_interrupted of { at_op : int }
      (** A scheduled nested crash fired [at_op] durable-memory operations
          into a recovery attempt. *)
  | Repair of { log : string; entries : int; bytes : int }
      (** Recovery (or a scrub) of a mirrored [log] restored [entries]
          diverged entries ([bytes] durable bytes) from an intact replica —
          damage healed with no data loss. *)
  | Scrub of { log : string; entries : int; repaired : int; unrepairable : int }
      (** An online scrub CRC-walked [entries] live entries of [log],
          repairing [repaired] cross-replica divergences and quarantining
          [unrepairable] spans corrupt in every replica. *)
  | Route of { shard : int; global : bool }
      (** The sharded construction (E14) routed an operation: to [shard]
          when [global] is [false], or fanned a global read out across
          every shard (in which case [shard] is the shard count). *)
  | Session of { client : int; seq : int; outcome : session_outcome }
      (** A durable client session (E15) disposed of [client]'s operation
          [seq]: see {!session_outcome}. *)
  | Txn of { shards : int; ops : int }
      (** A cross-shard transaction (E19) committed: [ops] sub-operations
          across [shards] participant shards, made durable by one
          coordinator fence. *)

type t = {
  time : int;  (** logical timestamp, unique and monotone per sink *)
  proc : int;  (** emitting process id; [-1] for whole-system events *)
  kind : kind;
}

let session_outcome_label = function
  | Sess_ok -> "ok"
  | Sess_duplicate -> "duplicate"
  | Sess_in_doubt -> "in_doubt"
  | Sess_shed -> "shed"
  | Sess_refused -> "refused"

let kind_label = function
  | Fence { persistent } -> if persistent then "pfence" else "fence"
  | Flush _ -> "flush"
  | Cas_retry _ -> "cas_retry"
  | Help _ -> "help"
  | Checkpoint _ -> "checkpoint"
  | Recovery _ -> "recovery"
  | Crash -> "crash"
  | Log_append _ -> "log_append"
  | Log_compact _ -> "log_compact"
  | Fault_injected _ -> "fault_injected"
  | Retry _ -> "retry"
  | Salvage _ -> "salvage"
  | Recovery_interrupted _ -> "recovery_interrupted"
  | Repair _ -> "repair"
  | Scrub _ -> "scrub"
  | Route _ -> "route"
  | Session _ -> "session"
  | Txn _ -> "txn"

let pp ppf { time; proc; kind } =
  let p ppf = Format.fprintf ppf in
  p ppf "@[<h>%d p%d %s" time proc (kind_label kind);
  (match kind with
  | Fence _ | Crash -> ()
  | Flush { lines } -> p ppf " lines=%d" lines
  | Cas_retry { site } -> p ppf " site=%s" site
  | Help { helped } -> p ppf " helped=%d" helped
  | Checkpoint { upto } -> p ppf " upto=%d" upto
  | Recovery { ops } -> p ppf " ops=%d" ops
  | Log_append { log; bytes } -> p ppf " log=%s bytes=%d" log bytes
  | Log_compact { log; dropped } -> p ppf " log=%s dropped=%d" log dropped
  | Fault_injected { fault } -> p ppf " fault=%s" fault
  | Retry { site; attempt } -> p ppf " site=%s attempt=%d" site attempt
  | Salvage { log; quarantined; bytes_lost } ->
      p ppf " log=%s quarantined=%d bytes_lost=%d" log quarantined bytes_lost
  | Recovery_interrupted { at_op } -> p ppf " at_op=%d" at_op
  | Repair { log; entries; bytes } ->
      p ppf " log=%s entries=%d bytes=%d" log entries bytes
  | Scrub { log; entries; repaired; unrepairable } ->
      p ppf " log=%s entries=%d repaired=%d unrepairable=%d" log entries
        repaired unrepairable
  | Route { shard; global } ->
      if global then p ppf " global shards=%d" shard
      else p ppf " shard=%d" shard
  | Session { client; seq; outcome } ->
      p ppf " client=%d seq=%d outcome=%s" client seq
        (session_outcome_label outcome)
  | Txn { shards; ops } -> p ppf " shards=%d ops=%d" shards ops);
  p ppf "@]"
