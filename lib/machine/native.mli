(** The native machine: real OCaml 5 domains, emulated persistent fences.

    For throughput experiments the construction runs on real hardware
    parallelism: [Tvar] is [Atomic], persistent-memory regions are plain
    byte buffers, and a persistent fence is emulated by a busy-wait of
    configurable duration on the monotonic clock (modelling the CPU stall
    while pending write-backs drain to NVM, §2.1). A region's memory is
    made resident as stores reach it ({!resident_bytes}). Flushes are free,
    exactly as in the cost model. Crashes are not supported on this
    machine — crash-recovery correctness is the simulator's job; the
    native machine exists to measure who wins and by how much as fence
    cost and core count vary.

    Worker domains must call {!register} (or be started via {!run_workers})
    before touching the machine, so that per-process state (pending flush
    counts, fence statistics, per-process logs) can be indexed densely. *)

type t

val create :
  ?fence_ns:int -> ?sink:Onll_obs.Sink.t -> max_processes:int -> unit -> t
(** [fence_ns] (default 500, roughly published NVM write-back latencies) is
    the emulated duration of a persistent fence. [fence_ns = 0] makes
    persistent fences free (counting still happens). [sink] (default
    {!Onll_obs.Sink.null}) receives [Fence] events; sinks are not
    synchronised, so under parallel domains counts are best-effort — for
    exact attribution use the simulated machine. *)

val machine : t -> Machine_sig.t

val register : t -> int
(** Claim a process id for the calling domain (also usable by the main
    domain for single-threaded runs). @raise Failure when more than
    [max_processes] domains register. *)

val run_workers : t -> (int -> 'a) list -> 'a list
(** [run_workers t bodies] spawns one domain per body, registers each,
    runs them in parallel and joins, returning results in order. *)

val fence_ns : t -> int
val set_fence_ns : t -> int -> unit
val sink : t -> Onll_obs.Sink.t
val set_sink : t -> Onll_obs.Sink.t -> unit
val persistent_fences : t -> int
val reset_stats : t -> unit

val resident_bytes : t -> int
(** The bytes of this machine's live persistent-memory regions that are
    resident in RAM ([mincore]). A region is an anonymous mapping that
    creation leaves untouched; a store reaching past the prefix made
    resident so far populates the next {!populate_step} bytes beyond its
    last byte ([MADV_POPULATE_WRITE], which writes nothing; a kernel
    without it leaves the pages to fault in on first touch), so a region
    holds about what was written to it, and an append rarely faults.
    Loads populate nothing: pages never written read as zeros. *)

val populate_step : int
(** 256 KiB. *)

val monotonic_ns : unit -> int64
(** [CLOCK_MONOTONIC] in nanoseconds — immune to wall-clock (NTP) steps.
    The emulated fence waits on it, and benches time real fsync fences
    with it. Allocation-free in native code. *)
