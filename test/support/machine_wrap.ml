(* Machine wrappers for tests: the same machine with one behaviour
   observed at the Pm boundary. *)

(* Every durable load counted, and recorded as its offset and length,
   newest first (meaningful for a machine whose only region is the one
   log under test). *)
module Counting_loads (M : Onll_machine.Machine_sig.S) = struct
  include M

  let loads = ref 0
  let spans : (int * int) list ref = ref []

  module Pm = struct
    type t = M.Pm.t

    let create = M.Pm.create
    let size = M.Pm.size
    let store = M.Pm.store
    let store_int64 = M.Pm.store_int64
    let flush = M.Pm.flush

    let load t ~off ~len =
      incr loads;
      spans := (off, len) :: !spans;
      M.Pm.load t ~off ~len

    let load_int64 t ~off =
      incr loads;
      spans := (off, 8) :: !spans;
      M.Pm.load_int64 t ~off
  end
end

(* The bytes of [lo, hi) that [spans] did not load exactly once, as
   readable complaints; empty when every byte was loaded once. *)
let not_loaded_once ~lo ~hi spans =
  let pieces =
    List.filter_map
      (fun (off, len) ->
        let a = max lo off and b = min hi (off + len) in
        if a < b then Some (a, b) else None)
      spans
    |> List.sort compare
  in
  let rec tile pos = function
    | [] ->
        if pos < hi then [ Printf.sprintf "bytes [%d, %d) never loaded" pos hi ]
        else []
    | (a, b) :: rest ->
        if a > pos then
          Printf.sprintf "bytes [%d, %d) never loaded" pos a :: tile b rest
        else if a < pos then
          Printf.sprintf "bytes [%d, %d) loaded more than once" a (min b pos)
          :: tile (max pos b) rest
        else tile b rest
  in
  tile lo pieces

(* The loads in [spans] longer than [max_load]. *)
let loads_over ~max_load spans =
  List.filter_map
    (fun (off, len) ->
      if len > max_load then
        Some
          (Printf.sprintf "a load of %d bytes at %d (bound %d)" len off
             max_load)
      else None)
    spans
