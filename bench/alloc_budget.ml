(** E21 — the allocation budget of an update and of a read.

    Allocation, unlike wall time, is deterministic on one domain, and it
    decides end-to-end numbers through the GC: a round's major-GC backlog
    moves recovery time, and where a fresh server's first major cycles
    land moves its late ops. This slice counts the minor-heap words one
    operation allocates, per stack, and asserts a ceiling for each.

    Setup: the native machine, one domain, a free fence, a kv object over
    64 keys with the default log capacity (so the count includes the
    compactions a full log runs); 1,000 puts warm the object up, then
    20,000 puts and 20,000 gets are counted. The operations are built
    before counting starts, so the count is the stack's alone. The exact
    counts are printed and written as ungated [e21.*] gauges: a compiler
    change moves them. *)

open Onll_machine
module Kv = Onll_specs.Kv

let keys = 64
let warmup = 1_000
let counted = 20_000

(* A stack, the name of its gauges and its ceilings, in words per
   operation. *)
type ceiling = {
  key : string;
  stack : Onll_stack.t;
  update_max : float;
  read_max : float;
}

let plain = Onll_stack.plain
let batched = { Onll_stack.top = Direct (Bare `Batched); replicas = 1 }

(* The layering of serve's exactly-once path: the client table under a
   session, over the relaxed front, over the plain engine. *)
let served = { Onll_stack.top = Session (Relaxed (`Plain, 64)); replicas = 1 }

(* Words per update and per read: plain 156.2 and 4, batched 175.2 and
   4, served 193.7 and 8 (244.7 while a lock ordered the relaxed front).
   Each ceiling is the smaller of its figure plus 10% and the ceiling it
   had when the stacks ran per-process views (plain 200 and 4.4, batched
   188.4 and 4.4, served 264.9 and 8.8). *)
let ceilings =
  [
    { key = "plain"; stack = plain; update_max = 171.8; read_max = 4.4 };
    { key = "batched"; stack = batched; update_max = 188.4; read_max = 4.4 };
    { key = "served"; stack = served; update_max = 213.1; read_max = 8.8 };
  ]

(* Minor-heap words allocated by [f ()]. *)
let words f =
  Gc.minor ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

type sample = { per_update : float; per_read : float }

let measure stack =
  let nat = Native.create ~fence_ns:0 ~max_processes:1 () in
  ignore (Native.register nat);
  let module M = (val Native.machine nat) in
  let module B = Onll_stack.Make (M) (Kv) in
  let obj = B.build stack Onll_core.Onll.Config.default in
  let key i = Printf.sprintf "key%02d" (i mod keys) in
  let puts =
    Array.init (warmup + counted) (fun i ->
        Kv.Put (key (i * 7), string_of_int i))
  in
  let gets = Array.init counted (fun i -> Kv.Get (key (i * 5))) in
  for i = 0 to warmup - 1 do
    ignore (obj.B.update puts.(i) : Kv.value)
  done;
  let w =
    words (fun () ->
        for i = warmup to warmup + counted - 1 do
          ignore (obj.B.update puts.(i) : Kv.value)
        done)
  in
  let r =
    words (fun () ->
        for i = 0 to counted - 1 do
          ignore (obj.B.read gets.(i) : Kv.value)
        done)
  in
  let n = float_of_int counted in
  { per_update = w /. n; per_read = r /. n }

let run () =
  let summary = Onll_obs.Metrics.create () in
  let rows =
    List.map
      (fun c ->
        let s = measure c.stack in
        let name = Format.asprintf "%a" Onll_stack.pp c.stack in
        let g what v =
          Onll_obs.Metrics.set
            (Onll_obs.Metrics.gauge summary
               (Printf.sprintf "e21.%s.%s" c.key what))
            v
        in
        g "words_per_update" s.per_update;
        g "words_per_read" s.per_read;
        (c, name, s))
      ceilings
  in
  Onll_util.Table.print
    ~title:
      (Printf.sprintf
         "E21 — minor words per operation (native, one domain, free fence, \
          kv over %d keys, %d puts and gets after %d warm-up puts)"
         keys counted warmup)
    ~header:
      [ "stack"; "words/update"; "ceiling"; "words/read"; "ceiling" ]
    (List.map
       (fun (c, name, s) ->
         [
           name;
           Printf.sprintf "%.1f" s.per_update;
           Printf.sprintf "%.1f" c.update_max;
           Printf.sprintf "%.1f" s.per_read;
           Printf.sprintf "%.1f" c.read_max;
         ])
       rows);
  let path = Harness.write_snapshot ~experiment:"e21" summary in
  Printf.printf "snapshot: %s\n" path;
  List.iter
    (fun (c, name, s) ->
      if s.per_update > c.update_max || s.per_read > c.read_max then
        failwith
          (Printf.sprintf
             "E21 %s: %.1f words per update (at most %.1f), %.1f per read \
              (at most %.1f)"
             name s.per_update c.update_max s.per_read c.read_max))
    rows
