(* Timing functors over the public signatures [Machine_sig.S] and
   [Spec.S], for the traced run only. The untraced run never links them
   in: its objects are built over the plain machine and spec.

   Every wrapped call adds its duration to the global accumulator [acc];
   a workload reads the accumulator before and after a top-level call to
   split that call's span into machine, spec and remaining (core) time.
   The benchmark is single-threaded, so one accumulator suffices. *)

let now_ns = Stats.now_ns

(* Fence attribution classes, by persistent region name. *)
let classes = [| "object"; "session"; "oseq"; "dir"; "relaxed"; "other" |]

let class_of name =
  let has sub =
    let n = String.length name and k = String.length sub in
    let rec go i = i + k <= n && (String.sub name i k = sub || go (i + 1)) in
    go 0
  in
  if has ".plog." then 0
  else if has ".srv.c" then 1
  else if has "serve.oseq" then 2
  else if has "serve.clients" then 3
  else if has ".relaxcoord." then 4
  else 5

type acc = {
  mutable machine_ns : int;  (* inside any wrapped machine call *)
  mutable fences : int;  (* persistent fences *)
  fence_us : Stats.Samples.t;  (* duration of each persistent fence *)
  fences_by_class : float array;  (* a fence shared by k classes counts 1/k to each *)
  mutable dirty : int;  (* classes flushed since the last fence, as bits *)
  mutable flushed_bytes : int;
  mutable spec_ns : int;  (* inside any wrapped spec call *)
  mutable apply_ns : int;
  mutable applies : int;
  mutable read_ns : int;
  mutable reads : int;
  mutable codec_ns : int;  (* update-op encode and decode *)
  mutable codecs : int;
  mutable state_encode_ns : int;
  mutable state_encodes : int;
}

let acc =
  {
    machine_ns = 0; fences = 0; fence_us = Stats.Samples.create ();
    fences_by_class = Array.make (Array.length classes) 0.; dirty = 0;
    flushed_bytes = 0; spec_ns = 0; apply_ns = 0; applies = 0; read_ns = 0;
    reads = 0; codec_ns = 0; codecs = 0; state_encode_ns = 0;
    state_encodes = 0;
  } [@ocamlformat "disable"]

let reset () =
  acc.machine_ns <- 0;
  acc.fences <- 0;
  Stats.Samples.clear acc.fence_us;
  Array.fill acc.fences_by_class 0 (Array.length classes) 0.;
  acc.dirty <- 0;
  acc.flushed_bytes <- 0;
  acc.spec_ns <- 0;
  acc.apply_ns <- 0;
  acc.applies <- 0;
  acc.read_ns <- 0;
  acc.reads <- 0;
  acc.codec_ns <- 0;
  acc.codecs <- 0;
  acc.state_encode_ns <- 0;
  acc.state_encodes <- 0

(* Successful fsyncs of the backing store, when it has one; the machine
   signature does not expose them, so the workload that builds a file
   machine installs a reader here. *)
let fsyncs : (unit -> int) ref = ref (fun () -> 0)

let machine_call f =
  let t0 = now_ns () in
  let r = f () in
  acc.machine_ns <- acc.machine_ns + (now_ns () - t0);
  r

module Machine (M : Onll_machine.Machine_sig.S) : Onll_machine.Machine_sig.S =
struct
  let id = M.id
  let max_processes = M.max_processes

  module Tvar = M.Tvar

  module Pm = struct
    type t = { pm : M.Pm.t; cls : int }

    let create ~name ~size = { pm = M.Pm.create ~name ~size; cls = class_of name }
    let size t = M.Pm.size t.pm
    let store t ~off s = machine_call (fun () -> M.Pm.store t.pm ~off s)
    let load t ~off ~len = machine_call (fun () -> M.Pm.load t.pm ~off ~len)
    let store_int64 t ~off v = machine_call (fun () -> M.Pm.store_int64 t.pm ~off v)
    let load_int64 t ~off = machine_call (fun () -> M.Pm.load_int64 t.pm ~off)

    let flush t ~off ~len =
      acc.dirty <- acc.dirty lor (1 lsl t.cls);
      acc.flushed_bytes <- acc.flushed_bytes + len;
      machine_call (fun () -> M.Pm.flush t.pm ~off ~len)
  end

  let fence () =
    let proc = M.self () in
    let before = M.persistent_fences_by ~proc in
    let t0 = now_ns () in
    M.fence ();
    let d = now_ns () - t0 in
    acc.machine_ns <- acc.machine_ns + d;
    if M.persistent_fences_by ~proc > before then begin
      acc.fences <- acc.fences + 1;
      Stats.Samples.add acc.fence_us (float_of_int d /. 1e3);
      let k = ref 0 in
      Array.iteri (fun i _ -> if acc.dirty land (1 lsl i) <> 0 then incr k) classes;
      Array.iteri
        (fun i _ ->
          if acc.dirty land (1 lsl i) <> 0 then
            acc.fences_by_class.(i) <- acc.fences_by_class.(i) +. (1. /. float_of_int !k))
        classes
    end;
    acc.dirty <- 0

  let self = M.self
  let return_point = M.return_point
  let pause = M.pause
  let yield = M.yield
  let persistent_fences = M.persistent_fences
  let persistent_fences_by = M.persistent_fences_by
end

let spec_call f =
  let t0 = now_ns () in
  let r = f () in
  let d = now_ns () - t0 in
  acc.spec_ns <- acc.spec_ns + d;
  (r, d)

(* The wrapped codecs frame the inner encoding as a length-prefixed
   string, so each encoded operation or state carries 8 more bytes. *)
module Spec (S : Onll_core.Spec.S) :
  Onll_core.Spec.S
    with type state = S.state
     and type update_op = S.update_op
     and type read_op = S.read_op
     and type value = S.value = struct
  include S

  let apply st op =
    let r, d = spec_call (fun () -> S.apply st op) in
    acc.apply_ns <- acc.apply_ns + d;
    acc.applies <- acc.applies + 1;
    r

  let read st op =
    let r, d = spec_call (fun () -> S.read st op) in
    acc.read_ns <- acc.read_ns + d;
    acc.reads <- acc.reads + 1;
    r

  let codec_call f =
    let r, d = spec_call f in
    acc.codec_ns <- acc.codec_ns + d;
    acc.codecs <- acc.codecs + 1;
    r

  let update_codec =
    let module C = Onll_util.Codec in
    C.map
      (fun s -> codec_call (fun () -> C.decode S.update_codec s))
      (fun op -> codec_call (fun () -> C.encode S.update_codec op))
      C.string

  let state_codec =
    let module C = Onll_util.Codec in
    C.map
      (fun s -> fst (spec_call (fun () -> C.decode S.state_codec s)))
      (fun st ->
        let r, d = spec_call (fun () -> C.encode S.state_codec st) in
        acc.state_encode_ns <- acc.state_encode_ns + d;
        acc.state_encodes <- acc.state_encodes + 1;
        r)
      C.string
end

(* A snapshot of the accumulator's scalar parts, for before/after
   differences around a top-level call. *)
type mark = { m_machine : int; m_spec : int }

let mark () = { m_machine = acc.machine_ns; m_spec = acc.spec_ns }

(* Self time of a span [t0, t1] that began at mark [m]: its duration
   minus the wrapped machine and spec calls it made. *)
let self_ns m ~t0 ~t1 =
  t1 - t0 - (acc.machine_ns - m.m_machine) - (acc.spec_ns - m.m_spec)

(* The machine accounting at a point in time: what a traced server child
   hands its parent (marshalled: both are the same program). *)
type summary = {
  s_fences : int;
  s_fence_us : Stats.Samples.t;
  s_by_class : float array;
  s_flushed_bytes : int;
  s_fsyncs : int;
  s_machine_ns : int;
}

let summary () =
  {
    s_fences = acc.fences; s_fence_us = acc.fence_us; s_by_class = acc.fences_by_class;
    s_flushed_bytes = acc.flushed_bytes; s_fsyncs = !fsyncs (); s_machine_ns = acc.machine_ns;
  } [@ocamlformat "disable"]

let div a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The machine.* per-layer metrics, per update. *)
let machine_metrics s ~updates ~window_ns =
  let u = max updates 1 in
  let m = Stats.m in
  [ m "machine.fences_per_update" "count" (div s.s_fences u) ]
  @ List.init 5 (fun i ->
        m ("machine.fences_per_update." ^ classes.(i)) "count" (s.s_by_class.(i) /. float_of_int u))
  @ [
      m "machine.fence_p50_us" "us" (Stats.Samples.quantile s.s_fence_us 0.5);
      m "machine.fence_p99_us" "us" (Stats.Samples.quantile s.s_fence_us 0.99);
      m "machine.fence_share" "ratio" (Stats.Samples.sum s.s_fence_us *. 1e3 /. float_of_int (max window_ns 1));
      m "machine.flushed_bytes_per_update" "B" (div s.s_flushed_bytes u);
      m "machine.fsyncs_per_fence" "count" (div s.s_fsyncs s.s_fences);
    ]

(* The spec.* per-layer metrics. *)
let spec_metrics () =
  let m = Stats.m in
  [
    m "spec.apply_us" "us" (div acc.apply_ns acc.applies /. 1e3);
    m "spec.read_us" "us" (div acc.read_ns acc.reads /. 1e3);
    m "spec.codec_us" "us" (div acc.codec_ns acc.codecs /. 1e3);
    m "spec.state_encode_ms" "ms" (div acc.state_encode_ns acc.state_encodes /. 1e6);
  ]
