(** "Linearize now, persist later" — the design §3.1 argues against, in
    all three of its forms.

    Structurally ONLL's sibling: same execution trace, same per-process
    single-fence logs, same recovery. The difference is the order of
    stages: an update is {e linearized at insertion} (it becomes visible
    to readers immediately), and the trace's per-node flag tracks
    {e persistence} instead of availability. The §3.1 case analysis then
    forces a choice on readers that observe a not-yet-persistent
    operation, and {!reader} names it. Together the three branches are
    the paper's case analysis in runnable form; ONLL's design is exactly
    the escape from all three.

    Fence cost: 1 per update, plus, under {!Help}, 1 per read whose
    observed prefix is not yet persistent. *)

(** What a reader does when the prefix it observes is not yet durable. *)
type reader =
  | Help
      (** Branch three: make the prefix durable before responding (one
          fence, counted by {!Make.read_fences}). Durably linearizable and
          lock-free, but reads are no longer fence-free. *)
  | Wait
      (** Branch two: spin until the updater persists it (counted by
          {!Make.reader_waits}). Durable, but not lock-free: a reader
          behind a stalled updater spins forever, which the scripted tests
          demonstrate as a livelock. *)
  | Return
      (** Branch one, deliberately broken: respond at once. A reader can
          observe an update that a subsequent crash erases — a
          durable-linearizability violation. Exists to validate the
          oracle: the test suite drives it into that window and asserts
          that {!Onll_histcheck.Histcheck} rejects the recorded history.
          {b Never} use it for anything else. *)

module Make (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S) : sig
  type t

  val create : ?log_capacity:int -> ?sink:Onll_obs.Sink.t -> reader -> t
  (** [sink] receives trace and log events and hosts the per-operation
      attribution metrics — {!Help}'s fences land in ["fences.read"]. *)

  val update : t -> S.update_op -> S.value
  (** @raise Onll_plog.Plog.Full when the caller's log fills — baselines
      deliberately do not compact (cost comparisons only; size logs for the
      workload). *)

  val read : t -> S.read_op -> S.value
  (** Acts on an unpersisted observation as the object's {!reader} says. *)

  val read_fences : t -> int
  (** Number of reads so far that had to fence ({!Help}; else 0). *)

  val reader_waits : t -> int
  (** Number of reads so far that had to spin ({!Wait}; else 0). *)

  val recover : t -> unit
  (** Adopts the longest contiguous logged prefix
      ({!Onll_core.Onll.Adoption.run}).
      @raise Onll_core.Onll.Recovery_corrupt under {!Help} and {!Wait}
      when an index is missing from every log or two logs disagree;
      under {!Return} it keeps the prefix below the first gap. *)

  val current_state : t -> S.state
end
