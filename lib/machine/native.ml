external sched_yield : unit -> unit = "onll_sched_yield" [@@noalloc]
external monotonic_ns : unit -> (int64[@unboxed])
  = "onll_monotonic_ns" "onll_monotonic_ns_unboxed"
[@@noalloc]

(* A persistent-memory region's bytes, mapped outside the OCaml heap
   (region_stubs.c): the GC neither scans nor counts them, and unmaps
   them when it finalizes the mapping. *)
type mapping =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external region_create : int -> mapping = "onll_region_create"
external region_populate : mapping -> int -> int -> unit
  = "onll_region_populate"
external region_resident : mapping -> int = "onll_region_resident"

external region_store : mapping -> int -> string -> int -> unit
  = "onll_region_store"
[@@noalloc]

external region_load : mapping -> int -> bytes -> int -> unit
  = "onll_region_load"
[@@noalloc]

external region_get64 : mapping -> int -> int64 = "%caml_bigstring_get64u"
external region_set64 : mapping -> int -> int64 -> unit
  = "%caml_bigstring_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* A region is made resident as its stores reach it, not at creation:
   [populated] is the end of the prefix already populated (or skipped),
   and a store ending past it populates up to one [populate_step] beyond
   its last byte. A log whose capacity exceeds what it writes holds only
   what it wrote; an append pays one compare, and one populate call per
   step. *)
type region = { map : mapping; size : int; mutable populated : int }

let populate_step = 256 * 1024

(* From [off], or the populated end when that lies above it: a store far
   past the populated prefix leaves the gap to first touch. Racing
   populates overlap harmlessly, and a lost update of [populated] costs
   one more call. *)
let populate r ~off ~upto =
  let from = max off r.populated in
  let until = min r.size (upto + populate_step) in
  region_populate r.map from (until - from);
  if until > r.populated then r.populated <- until

type proc_slot = {
  mutable pending : int;  (* flushed-but-unfenced line count *)
  mutable pfences : int;
  _pad : int array;  (* keep slots on separate cache lines *)
}

type t = {
  max_processes : int;
  mutable fence_ns : int;
  mutable sink : Onll_obs.Sink.t;
  slots : proc_slot array;
  next_id : int Atomic.t;
  key : int option Domain.DLS.key;
  regions : (string, region Weak.t) Hashtbl.t;
      (** every region made, by name; a region the GC collected reads
          [None] *)
  names_lock : Mutex.t;
}

(* The emulated fence: busy-wait until [ns] have passed on the monotonic
   clock. The clock read is a noalloc stub returning an unboxed int64, so
   the loop allocates nothing and needs no per-host calibration. *)
let spin_ns ns =
  let deadline = Int64.add (monotonic_ns ()) (Int64.of_int ns) in
  while Int64.compare (monotonic_ns ()) deadline < 0 do
    ()
  done

let create ?(fence_ns = 500) ?(sink = Onll_obs.Sink.null) ~max_processes () =
  if max_processes < 1 then invalid_arg "Native.create: max_processes < 1";
  {
    max_processes;
    fence_ns;
    sink;
    slots =
      Array.init max_processes (fun _ ->
          { pending = 0; pfences = 0; _pad = Array.make 14 0 });
    next_id = Atomic.make 0;
    key = Domain.DLS.new_key (fun () -> None);
    regions = Hashtbl.create 8;
    names_lock = Mutex.create ();
  }

let register t =
  match Domain.DLS.get t.key with
  | Some id -> id
  | None ->
      let id = Atomic.fetch_and_add t.next_id 1 in
      if id >= t.max_processes then
        failwith "Native.register: too many domains for max_processes";
      Domain.DLS.set t.key (Some id);
      id

let self_exn t =
  match Domain.DLS.get t.key with
  | Some id -> id
  | None -> failwith "Native: domain not registered (call Native.register)"

let fence_ns t = t.fence_ns
let set_fence_ns t ns = t.fence_ns <- ns
let sink t = t.sink
let set_sink t s = t.sink <- s

let persistent_fences t =
  Array.fold_left (fun acc s -> acc + s.pfences) 0 t.slots

let reset_stats t =
  Array.iter
    (fun s ->
      s.pending <- 0;
      s.pfences <- 0)
    t.slots

let resident_bytes t =
  Mutex.lock t.names_lock;
  let live = Hashtbl.fold (fun _ w acc -> Weak.get w 0 :: acc) t.regions [] in
  Mutex.unlock t.names_lock;
  List.fold_left
    (fun acc -> function
      | Some r -> (
          match region_resident r.map with -1 -> acc | b -> acc + b)
      | None -> acc)
    0 live

let run_workers t bodies =
  let domains =
    List.map
      (fun body ->
        Domain.spawn (fun () ->
            let id = register t in
            body id))
      bodies
  in
  List.map Domain.join domains

module Make_machine (X : sig
  val native : t
end) : Machine_sig.S = struct
  let n = X.native
  let id = "native"
  let max_processes = n.max_processes

  module Tvar = struct
    type 'a t = 'a Atomic.t

    let make = Atomic.make
    let get = Atomic.get
    let set = Atomic.set
    let cas v ~expected ~desired = Atomic.compare_and_set v expected desired
  end

  module Pm = struct
    type t = region

    let line_size = 64

    let create ~name ~size =
      if size <= 0 then invalid_arg "Native.Pm.create: non-positive size";
      let w = Weak.create 1 in
      Mutex.lock n.names_lock;
      let dup = Hashtbl.mem n.regions name in
      if not dup then Hashtbl.replace n.regions name w;
      Mutex.unlock n.names_lock;
      if dup then
        invalid_arg (Printf.sprintf "Native.Pm.create: duplicate region %S" name);
      let r = { map = region_create size; size; populated = 0 } in
      Weak.set w 0 (Some r);
      r

    let size r = r.size

    let check r off len what =
      if off < 0 || len < 0 || off + len > r.size then
        invalid_arg (Printf.sprintf "Native.Pm.%s: range out of bounds" what)

    let store r ~off data =
      let len = String.length data in
      check r off len "store";
      if off + len > r.populated then populate r ~off ~upto:(off + len);
      region_store r.map off data len

    let load r ~off ~len =
      check r off len "load";
      let b = Bytes.create len in
      region_load r.map off b len;
      Bytes.unsafe_to_string b

    (* little-endian on every host *)
    let store_int64 r ~off v =
      check r off 8 "store_int64";
      if off + 8 > r.populated then populate r ~off ~upto:(off + 8);
      region_set64 r.map off (if Sys.big_endian then swap64 v else v)

    let load_int64 r ~off =
      check r off 8 "load_int64";
      let v = region_get64 r.map off in
      if Sys.big_endian then swap64 v else v

    let flush r ~off ~len =
      check r off len "flush";
      if len > 0 then begin
        let slot = n.slots.(self_exn n) in
        let lines = ((off + len - 1) / line_size) - (off / line_size) + 1 in
        slot.pending <- slot.pending + lines
      end
  end

  let fence () =
    let slot = n.slots.(self_exn n) in
    if slot.pending > 0 then begin
      slot.pending <- 0;
      slot.pfences <- slot.pfences + 1;
      if Onll_obs.Sink.active n.sink then
        Onll_obs.Sink.emit n.sink ~proc:(self_exn n)
          (Onll_obs.Event.Fence { persistent = true });
      if n.fence_ns > 0 then spin_ns n.fence_ns
    end

  let self () = self_exn n
  let return_point () = ()
  let pause () = Domain.cpu_relax ()
  let yield () = sched_yield ()
  let persistent_fences () = persistent_fences n
  let persistent_fences_by ~proc = n.slots.(proc).pfences
end

let machine t : Machine_sig.t =
  (module Make_machine (struct
    let native = t
  end))
