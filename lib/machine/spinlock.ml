(* A test-and-test-and-set spin lock in a machine's transient memory: the
   relaxed tail lock. *)

module Make (M : Machine_sig.S) = struct
  type t = bool M.Tvar.t

  let make () = M.Tvar.make false

  (* Spinners read the lock and try the CAS only when they saw it free, so
     waiters do not steal the line from the holder on every pause. *)
  let try_acquire l =
    (not (M.Tvar.get l)) && M.Tvar.cas l ~expected:false ~desired:true

  let release l = M.Tvar.set l false

  (* Run [f] with [l] held, releasing it on the way out except past a
     crash's kill: releasing is a machine step, a simulated process must
     not step while it is killed, and recovery resets the lock. Any other
     exception (a degraded store, a transient fault, a full log, a caller
     error) the caller may catch and serve past, and a leaked lock would
     wedge every later operation in the busy-wait. *)
  let held l f =
    match f () with
    | v ->
        release l;
        v
    | exception (Onll_sched.Sched.Preempted as e) -> raise e
    | exception e ->
        release l;
        raise e

  let rec with_lock l f =
    if try_acquire l then held l f
    else begin
      M.yield ();
      with_lock l f
    end
end
