(* The key-value spec with a codec that refuses to decode [Put ("poison",
   _)]: it writes such an update but cannot read it back, so the log holds
   a CRC-valid entry that does not decode — what recovery counts as a
   decode failure. *)
include Onll_specs.Kv

let update_codec =
  Onll_util.Codec.map
    (function
      | Put ("poison", _) -> raise (Onll_util.Codec.Decode_error "poison")
      | op -> op)
    Fun.id Onll_specs.Kv.update_codec
