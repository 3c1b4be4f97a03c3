(* Machine wrappers for tests: the same machine with one behaviour
   observed at the Pm boundary. *)

(* Every durable load counted. *)
module Counting_loads (M : Onll_machine.Machine_sig.S) = struct
  include M

  let loads = ref 0

  module Pm = struct
    type t = M.Pm.t

    let create = M.Pm.create
    let size = M.Pm.size
    let store = M.Pm.store
    let store_int64 = M.Pm.store_int64
    let flush = M.Pm.flush

    let load t ~off ~len =
      incr loads;
      M.Pm.load t ~off ~len

    let load_int64 t ~off =
      incr loads;
      M.Pm.load_int64 t ~off
  end
end
