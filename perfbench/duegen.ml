(* The load generator: one process, one thread, one connection per
   client, at most one request outstanding per connection.

   Closed loop drives the measured windows. Open loop is the due-time
   generator: each client draws seeded Poisson arrivals; an arrival is
   due at its scheduled time whether or not the server has answered the
   previous one, and its latency is measured from that due time, so a
   stall shows in the requests queued behind it. It sleeps in select(2)
   only until the next due arrival, less [spin_ns] it spends polling
   without sleeping; how late each request left its free connection is
   recorded ([late]).

   [Onll_serve.Loadgen] is not used for timing: its loop releases due
   arrivals only after [Netpoll.wait ~timeout_ms:10] returns, so at low
   rates its latencies are uniform over that 10 ms tick (NOTES.md). *)

module Protocol = Onll_serve.Protocol
module Samples = Stats.Samples

(* Waking from select(2) on a 2-vCPU VM takes tens of microseconds, as
   long as a whole stale-mem round trip, so the generator spins through
   the last millisecond before a due arrival instead. *)
let spin_ns = 1_000_000

type kind = Update | Read


type outstanding = { due : int; sent : int; kind : kind; seq : int }

type client = {
  id : int;
  mutable fd : Unix.file_descr option;
  mutable inb : Protocol.Inbuf.t;
  mutable next_seq : int;
  mutable out : outstanding option;
  backlog : int Queue.t;  (* due times of arrived, unsent ops *)
  rng : Onll_util.Splitmix.t;
  mutable next_due : int;
  mutable left : int;  (* arrivals still to come in this segment *)
  mutable free_at : int;  (* when the last response arrived *)
}

(* One read in five, drawn from the client's seeded stream. *)
let draw_kind c = if Onll_util.Splitmix.float c.rng 1.0 < 0.2 then Read else Update

let client ~seed id =
  {
    id; fd = None; inb = Protocol.Inbuf.create (); next_seq = 0; out = None;
    backlog = Queue.create ();
    rng = Onll_util.Splitmix.create ((seed * 1_000_003) + id);
    next_due = 0; left = 0; free_at = 0;
  } [@ocamlformat "disable"]

(* What a pass observed. Latencies in microseconds. *)
type tally = {
  upd : Samples.t;  (* confirmed updates, from due time *)
  rd : Samples.t;  (* reads, from due time *)
  rtt : Samples.t;  (* every response, from send time *)
  late : Samples.t;  (* send time minus due time, when the connection was free at the due time *)
  mutable attempted : int;
  mutable ok : int;  (* confirmed within the latency limit *)
  mutable acked : int;  (* updates acked on the wire *)
  mutable submits : int;
  mutable shed : int;  (* R_overloaded refusals *)
  mutable failed : int;  (* wrong or unexpected responses *)
  mutable errors : string list;
  mutable window_ns : int;
  log_sends : bool;
  mutable sent_log : (int * kind) list;  (* if [log_sends]: (client, kind) in send order, newest first *)
}

let tally ?(log_sends = false) () =
  {
    upd = Stats.Samples.create (); rd = Stats.Samples.create (); rtt = Samples.create ();
    late = Samples.create (); attempted = 0; ok = 0; acked = 0; submits = 0;
    shed = 0; failed = 0; errors = []; window_ns = 0; log_sends; sent_log = [];
  } [@ocamlformat "disable"]

let fail t fmt =
  Printf.ksprintf
    (fun s ->
      t.failed <- t.failed + 1;
      if List.length t.errors < 5 then t.errors <- s :: t.errors)
    fmt

let fd c = match c.fd with Some fd -> fd | None -> failwith "client not connected"

let send c req =
  let b = Buffer.create 64 in
  Protocol.write_frame b Protocol.req_codec req;
  let s = Buffer.contents b in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring (fd c) s !off (n - !off)
  done

let scratch = Bytes.create 65536

(* Read what is available; false on end of stream. *)
let fill c =
  match Unix.read (fd c) scratch 0 (Bytes.length scratch) with
  | 0 -> false
  | n ->
      Protocol.Inbuf.add c.inb scratch n;
      true
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> false

(* Blocking receive of one response, bounded by [recv_timeout_s]. *)
let recv_timeout_s = 10.

let recv c =
  let deadline = Stats.now_s () +. recv_timeout_s in
  let rec go () =
    match Protocol.Inbuf.pop c.inb Protocol.resp_codec with
    | Some r -> r
    | None ->
        let left = deadline -. Stats.now_s () in
        if left <= 0. then failwith (Printf.sprintf "client %d: no response" c.id);
        (match Unix.select [ fd c ] [] [] left with
        | [], _, _ -> ()
        | _ -> if not (fill c) then failwith (Printf.sprintf "client %d: connection closed" c.id)
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        go ()
  in
  go ()

let disconnect c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None

let connect c path =
  disconnect c;
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  c.fd <- Some fd;
  c.inb <- Protocol.Inbuf.create ()

(* Attach the client's session and resolve its in-doubt update, if any,
   with the protocol's resolution rule (Protocol's module doc). *)
let attach ?(ledger : Checks.Ledger.t option) c ~path ~tier =
  let rec go tries =
    connect c path;
    send c (Protocol.Hello { client = c.id; token = "onll"; tier });
    match recv c with
    | Protocol.Attached { next_seq; resolution; _ } -> (
        let confirm seq = Option.iter (fun l -> Checks.Ledger.confirm l ~client:c.id ~seq) ledger in
        let not_applied () = Option.iter (fun l -> Checks.Ledger.not_applied l ~client:c.id) ledger in
        let finish () =
          c.out <- None;
          c.next_seq <- next_seq
        in
        match c.out with
        | Some { kind = Update; seq; _ } -> (
            let names_op = seq = next_seq - 1 in
            match resolution with
            | (Protocol.W_applied _ | Protocol.W_reinvoked _) when names_op ->
                confirm seq;
                finish ()
            | Protocol.W_refused _ when names_op ->
                not_applied ();
                finish ()
            | Protocol.W_unresolved _ when names_op && tries > 0 -> go (tries - 1)
            | Protocol.W_unresolved _ when names_op ->
                failwith (Printf.sprintf "client %d: seq %d still in doubt" c.id seq)
            | _ ->
                if seq < next_seq then confirm seq else not_applied ();
                finish ())
        | Some { kind = Read; _ } | None -> finish ())
    | r ->
        failwith
          (Format.asprintf "client %d: Hello answered %s" c.id
             (match r with Protocol.Refused f -> Format.asprintf "%a" Protocol.pp_refusal f | _ -> "out of turn"))
  in
  go 10

let counter_op = Onll_util.Codec.encode Onll_specs.Counter.update_codec Onll_specs.Counter.Increment

let on_resp t ~ledger ~limit_us c now (resp : Protocol.resp) =
  match c.out with
  | None -> fail t "client %d: response with nothing outstanding" c.id
  | Some o -> (
      c.out <- None;
      c.free_at <- now;
      Samples.add t.rtt (float_of_int (now - o.sent) /. 1e3);
      let lat = float_of_int (now - o.due) /. 1e3 in
      match (o.kind, resp) with
      | Update, Protocol.Acked { seq; _ } when seq = o.seq ->
          Option.iter (fun l -> Checks.Ledger.confirm l ~client:c.id ~seq) ledger;
          c.next_seq <- seq + 1;
          t.acked <- t.acked + 1;
          Stats.Samples.add t.upd lat;
          if lat <= limit_us then t.ok <- t.ok + 1
      | Update, Protocol.Refused Protocol.R_overloaded -> t.shed <- t.shed + 1
      | Read, Protocol.Got _ ->
          Stats.Samples.add t.rd lat;
          if lat <= limit_us then t.ok <- t.ok + 1
      | _, Protocol.Refused r ->
          fail t "client %d: refused %s" c.id (Format.asprintf "%a" Protocol.pp_refusal r)
      | _ -> fail t "client %d: unexpected response" c.id)

let issue t ~open_loop c now due =
  let kind = draw_kind c in
  let seq = c.next_seq in
  (match kind with
  | Update ->
      t.submits <- t.submits + 1;
      send c (Protocol.Submit { seq; deadline_ns = 0; op = counter_op })
  | Read -> send c (Protocol.Fetch { op = "" }));
  c.out <- Some { due; sent = now; kind; seq };
  t.attempted <- t.attempted + 1;
  if t.log_sends then t.sent_log <- (c.id, kind) :: t.sent_log;
  (* an arrival that found its connection busy waited for the server, not
     for the generator *)
  if open_loop && due >= c.free_at then Samples.add t.late (float_of_int (now - due) /. 1e3)

(* Closed loop: each connection sends its next request when the previous
   one is answered, timed from the send. Open loop: seeded Poisson
   arrivals at a rate per connection, timed from the due time. *)
type load = Closed | Open of float

let gap c rate_hz =
  let u = Onll_util.Splitmix.float c.rng 1.0 in
  max 1 (int_of_float (-.log (1. -. u) /. rate_hz *. 1e9))

(* Run [per_client] ops on each connection; returns once every response
   is in. *)
let segment t ~ledger ~clients ~load ~per_client ~limit_us =
  let t0 = Stats.now_ns () in
  Array.iter
    (fun c ->
      c.left <- per_client;
      c.next_due <- (match load with Open r -> t0 + gap c r | Closed -> max_int))
    clients;
  let finished = ref false in
  while not !finished do
    let now = Stats.now_ns () in
    Array.iter
      (fun c ->
        (match load with
        | Closed ->
            if c.left > 0 && c.out = None then begin
              Queue.push now c.backlog;
              c.left <- c.left - 1
            end
        | Open r ->
            while c.left > 0 && c.next_due <= now do
              Queue.push c.next_due c.backlog;
              c.left <- c.left - 1;
              c.next_due <- c.next_due + gap c r
            done);
        if c.out = None && not (Queue.is_empty c.backlog) then
          issue t ~open_loop:(load <> Closed) c now (Queue.pop c.backlog))
      clients;
    let issuing = Array.exists (fun c -> c.left > 0 || not (Queue.is_empty c.backlog)) clients in
    let busy = Array.exists (fun c -> c.out <> None) clients in
    if (not issuing) && not busy then finished := true
    else begin
      let next = Array.fold_left (fun a c -> if c.left > 0 then min a c.next_due else a) max_int clients in
      let fds = Array.fold_left (fun a c -> if c.out <> None then fd c :: a else a) [] clients in
      let timeout =
        if next = max_int then 10.
        else
          let dt = next - Stats.now_ns () in
          if dt > spin_ns then float_of_int (dt - spin_ns) /. 1e9 else 0.
      in
      match Unix.select fds [] [] timeout with
      | ready, _, _ ->
          let now = Stats.now_ns () in
          List.iter
            (fun fd' ->
              let c = List.find (fun c -> c.fd = Some fd') (Array.to_list clients) in
              if not (fill c) then failwith (Printf.sprintf "client %d: server closed the connection" c.id);
              let rec pop () =
                match Protocol.Inbuf.pop c.inb Protocol.resp_codec with
                | Some r ->
                    on_resp t ~ledger ~limit_us c now r;
                    pop ()
                | None -> ()
              in
              pop ())
            ready
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    end
  done;
  t.window_ns <- t.window_ns + (Stats.now_ns () - t0)

(* Send an update outside any tally, for a kill to catch in flight: it
   is in doubt until the re-attach resolves it. *)
let fire ~ledger c =
  let seq = c.next_seq in
  send c (Protocol.Submit { seq; deadline_ns = 0; op = counter_op });
  c.out <- Some { due = 0; sent = 0; kind = Update; seq };
  Option.iter (fun l -> Checks.Ledger.in_doubt l ~client:c.id ~seq) ledger

let read_counter c =
  send c (Protocol.Fetch { op = "" });
  match recv c with
  | Protocol.Got v -> v
  | _ -> failwith "final read refused"
