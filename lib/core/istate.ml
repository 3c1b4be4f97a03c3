(* Materialised state (§8), shared by the core and group-commit
   constructions: the specification state plus, per process, how many of
   its operations are included ([floors.(p)] = 1 + highest included
   sequence number), so detectability and sequence allocation survive
   compaction. Immutable; [floors] is copied on write. *)
module Make (M : Onll_machine.Machine_sig.S) (S : Spec.S) = struct
  type t = { st : S.state; floors : int array }

  let initial () = { st = S.initial; floors = Array.make M.max_processes 0 }

  (* Apply operation number [seq] of process [proc]. *)
  let apply is ~proc ~seq op =
    let st, v = S.apply is.st op in
    let floors =
      if seq >= is.floors.(proc) then begin
        let f = Array.copy is.floors in
        f.(proc) <- seq + 1;
        f
      end
      else is.floors
    in
    ({ st; floors }, v)

  let codec =
    let open Onll_util.Codec in
    map
      (fun (st, floors) -> { st; floors })
      (fun { st; floors } -> (st, floors))
      (pair S.state_codec (array int))
end
