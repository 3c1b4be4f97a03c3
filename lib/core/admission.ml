(* Admission that compacts before it sheds, shared by a session and by
   `onll serve`: sample the fullest object log's fill, and at the
   watermark compact and sample again, so that only what compaction
   cannot reclaim is refused. A compaction that left the fill at or
   above the watermark (or raised [Log_full]: nothing to reclaim) is not
   retried until the fill grows past that level, so genuine overload
   stays a cheap refusal; one that a transient fault cut short leaves no
   such mark. A watermark of [1.0] or more admits everything unsampled. *)

type t = {
  watermark : float;
  mutable last : float;  (* the fill admission last acted on *)
  mutable stuck : float;
      (* fill left by the last compaction that could not get below the
         watermark *)
}

let create ~watermark = { watermark; last = 0.; stuck = Float.neg_infinity }
let last t = t.last

let admit t ~fill ~compact =
  let below () =
    t.last <- fill ();
    t.last < t.watermark
  in
  if t.watermark >= 1.0 then true
  else if below () then begin
    t.stuck <- Float.neg_infinity;
    true
  end
  else if t.last <= t.stuck then false
  else begin
    let ran =
      match compact () with
      | () -> true
      | exception Onll.Log_full _ -> true
      | exception Onll_nvm.Memory.Transient_fault _ -> false
    in
    if below () then begin
      t.stuck <- Float.neg_infinity;
      true
    end
    else begin
      if ran then t.stuck <- t.last;
      false
    end
  end
