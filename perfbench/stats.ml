(* Sample buffers, quantiles and the result line. *)

let now_ns () = Int64.to_int (Onll_machine.Native.monotonic_ns ())
let now_s () = float_of_int (now_ns ()) /. 1e9

(* A growable buffer of float samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  (* The samples added since the buffer held [i]. *)
  let since t i = { a = Array.sub t.a i (t.n - i); n = t.n - i }
  let clear t = t.n <- 0

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let mean t = if t.n = 0 then 0. else sum t /. float_of_int t.n

  (* Linear interpolation between closest ranks, as
     [statistics.quantiles(method="inclusive")] does. 0 when empty. *)
  let quantile t q =
    if t.n = 0 then 0.
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let pos = q *. float_of_int (t.n - 1) in
      let i = int_of_float pos in
      if i >= t.n - 1 then s.(t.n - 1)
      else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
    end

  let median t = quantile t 0.5
  let p99 t = quantile t 0.99

  (* The median of the 99th percentiles of consecutive [slice]-sample
     slices, each with ten samples beyond its p99: bursts of host
     scheduling stalls, which land in few slices, move it far less than
     they move [p99]. A program stall that recurs through the run moves
     both; one that lands in few slices moves only [p99]. With fewer
     samples than one slice, [p99]. *)
  let slice = 1000

  let slice_p99 t =
    let p99s = create () and cur = create () in
    for i = 0 to (t.n / slice * slice) - 1 do
      add cur t.a.(i);
      if cur.n = slice then begin
        add p99s (p99 cur);
        clear cur
      end
    done;
    if p99s.n = 0 then p99 t else median p99s
end

let median_of l =
  let s = Samples.create () in
  List.iter (Samples.add s) l;
  Samples.median s

(* Peak resident set of a process, MiB, from /proc/<pid>/status VmHWM. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The result line: one JSON object, the last line of stdout. A failed
   check reports no metrics. *)
let result_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  if correct then
    List.iteri
      (fun i { name; value; unit_ } ->
        let v = if Float.is_finite value then value else 0. in
        Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
          (if i = 0 then "" else ", ")
          name v unit_)
      metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
