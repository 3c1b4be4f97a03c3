(** E22 — the restart budget: what a fresh [onll] process costs before
    recovery runs a line.

    The paper recovers by starting fresh processes over the surviving
    memory (§2.2, Listing 5), so a served client learns the fate of its
    in-doubt operation only once a restarted server reports READY. Four
    starts of the CLI, interleaved, [runs] of each:
    - [onll --version], spawn to exit: process start alone;
    - [onll serve] in memory, spawn to READY;
    - [onll serve] on a fresh, empty [--dir], spawn to READY;
    - [onll serve] on a populated [--dir] whose object log holds
      [populate] update envelopes (past 256, where recovery's envelope
      array outgrows a minor-heap allocation), spawn to READY.

    The median and quartiles of each are printed and written as ungated
    [e22t.*] gauges: wall time on a shared host is not asserted. Asserted:
    every server reports READY, the populated store's restart recovers
    more than 256 operations, and every restart reads back the counter
    the store was given. *)

module Protocol = Onll_serve.Protocol

let runs = 40
let populate = 400

let now_s () = Int64.to_float (Onll_machine.Native.monotonic_ns ()) /. 1e9

let spawn ?(stdout = Unix.stdout) onll args =
  Unix.create_process onll (Array.of_list (onll :: args)) Unix.stdin stdout
    Unix.stderr

let stop ?(signal = Sys.sigkill) pid =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* Seconds from spawn to exit. *)
let version onll =
  let null = Unix.openfile "/dev/null" [ O_WRONLY; O_CLOEXEC ] 0 in
  let t0 = now_s () in
  let pid = spawn ~stdout:null onll [ "--version" ] in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "e22: onll --version failed");
  let dt = now_s () -. t0 in
  Unix.close null;
  dt

(* A server started and READY: its pid, and seconds from spawn to READY. *)
let serve onll ~socket ?dir ?(extra = []) () =
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [ "serve"; "--socket"; socket ]
    @ (match dir with Some d -> [ "--dir"; d ] | None -> [])
    @ extra
  in
  let t0 = now_s () in
  let pid = spawn ~stdout:w onll args in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let dt = now_s () -. t0 in
  close_in ic;
  if not (String.starts_with ~prefix:"READY" line) then begin
    stop pid;
    failwith (Printf.sprintf "e22: onll %s: no READY" (String.concat " " args))
  end;
  (pid, dt)

(* {1 A blocking exactly-once client} *)

let send fd req =
  let b = Buffer.create 64 in
  Protocol.write_frame b Protocol.req_codec req;
  let s = Buffer.contents b in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let recv fd inb =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Protocol.Inbuf.pop inb Protocol.resp_codec with
    | Some r -> r
    | None -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> failwith "e22: the server closed the connection"
        | n ->
            Protocol.Inbuf.add inb buf n;
            go ())
  in
  go ()

(* Attach client 0 and run [f] over a request-response function. *)
let with_client socket f =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (ADDR_UNIX socket);
  let inb = Protocol.Inbuf.create () in
  let call req =
    send fd req;
    recv fd inb
  in
  match
    call
      (Protocol.Hello { client = 0; token = "onll"; tier = T_exactly_once })
  with
  | Protocol.Attached { next_seq; _ } -> f ~next_seq call
  | _ -> failwith "e22: Hello refused"

let read_counter socket =
  with_client socket (fun ~next_seq:_ call ->
      match call (Protocol.Fetch { op = "" }) with
      | Protocol.Got v -> v
      | _ -> failwith "e22: read refused")

let increment =
  Onll_util.Codec.encode Onll_specs.Counter.update_codec
    Onll_specs.Counter.Increment

(* [populate] exactly-once increments into the store at [dir], then a
   drained stop. *)
let fill onll ~socket ~dir =
  let pid, _ = serve onll ~socket ~dir () in
  with_client socket (fun ~next_seq call ->
      for seq = next_seq to next_seq + populate - 1 do
        match
          call (Protocol.Submit { seq; deadline_ns = 0; op = increment })
        with
        | Protocol.Acked _ -> ()
        | _ -> failwith "e22: an increment was not acked"
      done);
  stop ~signal:Sys.sigterm pid

(* The operations one drained restart of the store recovers, from its
   [--stats-out] snapshot. *)
let recovered_ops onll ~socket ~dir =
  let stats = Filename.concat dir "stats.json" in
  let pid, _ = serve onll ~socket ~dir ~extra:[ "--stats-out"; stats ] () in
  stop ~signal:Sys.sigterm pid;
  let scalars = Onll_obs.Export.read_scalars ~path:stats in
  Sys.remove stats;
  int_of_float (List.assoc "recovery.ops" scalars)

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let at q = a.(min (Array.length a - 1) (q * Array.length a / 4)) in
  (at 1, at 2, at 3)

let run () =
  let onll = Harness.onll_cli () in
  Test_support.Temp_dir.with_fresh ~prefix:"onll-e22" @@ fun base ->
  let socket = Filename.concat base "s.sock" in
  let populated = Filename.concat base "populated" in
  Unix.mkdir populated 0o755;
  fill onll ~socket ~dir:populated;
  let recovered = recovered_ops onll ~socket ~dir:populated in
  Printf.printf "populated store: %d increments, %d operations recovered\n"
    populate recovered;
  if recovered <= 256 then
    failwith
      (Printf.sprintf
         "e22: the populated store recovered %d operations (> 256 wanted)"
         recovered);
  let fresh_dir i =
    let d = Filename.concat base (Printf.sprintf "fresh%d" i) in
    Unix.mkdir d 0o755;
    d
  in
  let starts =
    [
      ("version", "onll --version (spawn to exit)", fun _ -> version onll);
      ( "serve_mem",
        "onll serve, in memory",
        fun _ ->
          let pid, dt = serve onll ~socket () in
          stop pid;
          dt );
      ( "serve_fresh_dir",
        "onll serve, fresh --dir",
        fun i ->
          let dir = fresh_dir i in
          let pid, dt = serve onll ~socket ~dir () in
          stop pid;
          Test_support.Temp_dir.rm_rf dir;
          dt );
      ( "serve_populated_dir",
        Printf.sprintf "onll serve, --dir of %d envelopes" recovered,
        fun _ ->
          let pid, dt = serve onll ~socket ~dir:populated () in
          let v = read_counter socket in
          stop pid;
          if v <> populate then
            failwith
              (Printf.sprintf "e22: the restart read %d, the store was given %d"
                 v populate);
          dt );
    ]
  in
  let samples = List.map (fun _ -> ref []) starts in
  for i = 1 to runs do
    List.iter2 (fun (_, _, f) acc -> acc := f i :: !acc) starts samples
  done;
  let summary = Onll_obs.Metrics.create () in
  let rows =
    List.map2
      (fun (key, label, _) acc ->
        let q1, med, q3 = quartiles !acc in
        let ms x = Printf.sprintf "%.3f" (x *. 1e3) in
        List.iter
          (fun (name, v) ->
            Onll_obs.Metrics.set
              (Onll_obs.Metrics.gauge summary
                 (Printf.sprintf "e22t.%s.%s_ms" key name))
              (v *. 1e3))
          [ ("p25", q1); ("median", med); ("p75", q3) ];
        [ label; ms med; ms q1 ^ " - " ^ ms q3 ])
      starts samples
  in
  Onll_util.Table.print
    ~title:(Printf.sprintf "E22 — restart budget (%d runs each, ms)" runs)
    ~header:[ "start"; "median"; "quartiles" ]
    rows;
  let path = Harness.write_snapshot ~experiment:"e22" summary in
  Printf.printf "snapshot: %s\n" path
