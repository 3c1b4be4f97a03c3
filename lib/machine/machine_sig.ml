(** The machine abstraction the universal construction is written against.

    The paper's algorithm needs exactly this much from the hardware:
    transient shared variables with atomic read/write/CAS (the cache-coherent
    DRAM side), persistent memory regions with store/load/flush plus a
    process-wide fence (the NVM side), and a notion of process identity.

    Two implementations exist: {!Sim} (deterministic scheduler + simulated
    NVM, for correctness, crash testing and fence accounting) and {!Native}
    (OCaml 5 domains + [Atomic], with persistent fences emulated by a
    busy-wait on the monotonic clock, for throughput experiments). The
    construction is a functor over this signature, so the code measured
    natively is the code verified under simulation. *)

module type S = sig
  val id : string
  (** ["sim"] or ["native"]; for reports. *)

  val max_processes : int
  (** MAX-PROCESSES in the paper: a static bound on concurrent processes.
      Process ids are [0 .. max_processes - 1]. *)

  (** Transient (volatile) shared variables. Contents are lost at a crash;
      they live in "DRAM/cache" and support CAS, which NVM does not (§3.1
      constraint 1). *)
  module Tvar : sig
    type 'a t

    val make : 'a -> 'a t
    val get : 'a t -> 'a
    val set : 'a t -> 'a -> unit

    val cas : 'a t -> expected:'a -> desired:'a -> bool
    (** Atomic compare-and-swap on physical equality. *)
  end

  (** Persistent memory regions. Stores are volatile until flushed {e and}
      fenced; see {!Onll_nvm.Memory} for the full semantics. *)
  module Pm : sig
    type t

    val create : name:string -> size:int -> t
    (** Allocate a region of simulated (or emulated) NVM. Region names must
        be unique within a machine instance. *)

    val size : t -> int
    val store : t -> off:int -> string -> unit
    val load : t -> off:int -> len:int -> string
    val store_int64 : t -> off:int -> int64 -> unit
    val load_int64 : t -> off:int -> int64

    val flush : t -> off:int -> len:int -> unit
    (** Asynchronous write-back ([clwb]); free of charge. *)
  end

  val fence : unit -> unit
  (** Drain the calling process's pending write-backs. Counted as a
      persistent fence iff write-backs were pending. *)

  val self : unit -> int
  (** The calling process's id. *)

  val return_point : unit -> unit
  (** Declare that the current operation is about to respond; a scheduling
      point the simulator can break on ("preempt just before the response").
      No-op on the native machine. *)

  val pause : unit -> unit
  (** Back-off hint for spin loops (lock-based baselines). *)

  val yield : unit -> unit
  (** Give other processes a chance to run before continuing — the strong
      form of {!pause}. On the simulator both are a scheduling point; on
      the native machine [pause] is a CPU relax hint (right when the peer
      is running on another core) while [yield] surrenders the OS
      timeslice (required when processes outnumber cores, where a spinning
      waiter would otherwise burn the slice the lock holder needs). Under
      the combining persist policy an update yields while it waits for
      another process's persist to cover it. *)

  (** {1 Accounting} *)

  val persistent_fences : unit -> int
  (** Total persistent fences executed on this machine instance. *)

  val persistent_fences_by : proc:int -> int
end

type t = (module S)
