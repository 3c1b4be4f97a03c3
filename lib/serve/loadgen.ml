(* Open-loop load generator (see loadgen.mli). *)

module Splitmix = Onll_util.Splitmix

let now_ns () = Int64.to_int (Onll_machine.Native.monotonic_ns ())

(* {1 The cross-pass exactly-once audit} *)

module Audit = struct
  type t = {
    confirmed : (int * int, unit) Hashtbl.t;  (* (client, seq) *)
    outstanding : (int, int) Hashtbl.t;  (* client -> in-doubt seq *)
    mutable dups : int;
    mutable violations : string list;
  }

  let create () =
    {
      confirmed = Hashtbl.create 4096;
      outstanding = Hashtbl.create 64;
      dups = 0;
      violations = [];
    }

  let violation a fmt =
    Printf.ksprintf (fun s -> a.violations <- s :: a.violations) fmt

  let confirm a ~client ~seq =
    let key = (client, seq) in
    if Hashtbl.mem a.confirmed key then begin
      a.dups <- a.dups + 1;
      violation a "client %d seq %d confirmed twice (duplicate)" client seq
    end
    else Hashtbl.replace a.confirmed key ();
    Hashtbl.remove a.outstanding client

  let abort a ~client = Hashtbl.remove a.outstanding client
  let in_doubt a ~client ~seq = Hashtbl.replace a.outstanding client seq
  let confirmed a = Hashtbl.length a.confirmed
  let duplicates a = a.dups
  let unresolved a = Hashtbl.length a.outstanding

  let max_outstanding_client a =
    Hashtbl.fold (fun c _ acc -> max c acc) a.outstanding (-1)

  let check_final a ~counter_value =
    let v = a.violations in
    let v =
      if Hashtbl.length a.outstanding > 0 then
        Printf.sprintf "%d operations left unresolved"
          (Hashtbl.length a.outstanding)
        :: v
      else v
    in
    let n = Hashtbl.length a.confirmed in
    let v =
      if counter_value > n then
        Printf.sprintf "counter %d exceeds %d confirmed ops (duplicate apply)"
          counter_value n
        :: v
      else if counter_value < n then
        Printf.sprintf "counter %d below %d confirmed ops (lost acked update)"
          counter_value n
        :: v
      else v
    in
    List.rev v
end

(* {1 Config and report} *)

type config = {
  socket_path : string;
  clients : int;
  first_client : int;
  rate_hz : float;
  duration_ms : int;
  seed : int;
  token : string;
  deadline_ms : int;
  max_attempts : int;
  backoff_base_ms : int;
  backoff_cap_ms : int;
  churn_every_ms : int;
  churn_frac : float;
  connect_timeout_ms : int;
  tier : Protocol.tier;
}

let default_config ~socket_path =
  {
    socket_path;
    clients = 64;
    first_client = 0;
    rate_hz = 50.;
    duration_ms = 2_000;
    seed = 1;
    token = "onll";
    deadline_ms = 500;
    max_attempts = 8;
    backoff_base_ms = 1;
    backoff_cap_ms = 64;
    churn_every_ms = 0;
    churn_frac = 0.;
    connect_timeout_ms = 3_000;
    tier = Protocol.T_exactly_once;
  }

type report = {
  r_sent : int;
  r_confirmed : int;
  r_acked : int;
  r_adopted : int;
  r_shed : int;
  r_timeouts : int;
  r_degraded : int;
  r_draining : int;
  r_bad_seq : int;
  r_aborted : int;
  r_dropped_arrivals : int;
  r_reconnects : int;
  r_conn_failures : int;
  r_unresolved : int;
  r_wall_ms : int;
  r_p50_us : int;
  r_p99_us : int;
  r_p999_us : int;
  r_goodput : float;
  r_shed_rate : float;
  r_final_value : int option;
}

let pp_report ppf r =
  Format.fprintf ppf
    "sent=%d confirmed=%d (acked=%d adopted=%d) shed=%d \
     timeouts=%d degraded=%d draining=%d bad_seq=%d aborted=%d dropped=%d \
     reconnects=%d conn_failures=%d unresolved=%d wall=%dms p50=%dus \
     p99=%dus p999=%dus goodput=%.1f/s shed_rate=%.4f%s"
    r.r_sent r.r_confirmed r.r_acked r.r_adopted r.r_shed
    r.r_timeouts r.r_degraded r.r_draining r.r_bad_seq r.r_aborted
    r.r_dropped_arrivals r.r_reconnects r.r_conn_failures r.r_unresolved
    r.r_wall_ms r.r_p50_us r.r_p99_us r.r_p999_us r.r_goodput r.r_shed_rate
    (match r.r_final_value with
    | None -> ""
    | Some v -> Printf.sprintf " final=%d" v)

let report_to_json r =
  let b = Buffer.create 512 in
  let field ?(last = false) k v =
    Buffer.add_string b
      (Printf.sprintf "  %S: %s%s\n" k v (if last then "" else ","))
  in
  Buffer.add_string b "{\n";
  field "sent" (string_of_int r.r_sent);
  field "confirmed" (string_of_int r.r_confirmed);
  field "acked" (string_of_int r.r_acked);
  field "adopted" (string_of_int r.r_adopted);
  field "shed" (string_of_int r.r_shed);
  field "timeouts" (string_of_int r.r_timeouts);
  field "degraded" (string_of_int r.r_degraded);
  field "draining" (string_of_int r.r_draining);
  field "bad_seq" (string_of_int r.r_bad_seq);
  field "aborted" (string_of_int r.r_aborted);
  field "dropped_arrivals" (string_of_int r.r_dropped_arrivals);
  field "reconnects" (string_of_int r.r_reconnects);
  field "conn_failures" (string_of_int r.r_conn_failures);
  field "unresolved" (string_of_int r.r_unresolved);
  field "wall_ms" (string_of_int r.r_wall_ms);
  field "p50_us" (string_of_int r.r_p50_us);
  field "p99_us" (string_of_int r.r_p99_us);
  field "p999_us" (string_of_int r.r_p999_us);
  field "goodput_ops_s" (Printf.sprintf "%.3f" r.r_goodput);
  field "shed_rate" (Printf.sprintf "%.6f" r.r_shed_rate);
  field ~last:true "final_value"
    (match r.r_final_value with None -> "null" | Some v -> string_of_int v);
  Buffer.add_string b "}\n";
  Buffer.contents b

(* How long the event loop may block in poll when the earliest timed
   event (an arrival, a backoff, a reconnect) is due at [due]: until then,
   rounded up to whole milliseconds so it is never early, and at most
   [max_poll_ms]. A socket that becomes ready ends the wait sooner. *)
let max_poll_ms = 10

let poll_timeout_ms ~now ~due =
  if due <= now then 0
  else if due - now >= max_poll_ms * 1_000_000 then max_poll_ms
  else (due - now + 999_999) / 1_000_000

(* {1 Per-client state machine} *)

type pending = {
  mutable seq : int;  (* -1 until first submitted *)
  arrival_ns : int;  (* 0 for ops carried over from a previous pass *)
  mutable attempts : int;
}

type phase =
  | Sleeping of int  (* reconnect at this timestamp (ns) *)
  | Connecting
  | Hello_wait
  | Ready
  | Ack_wait
  | Backoff_submit of int  (* resubmit the pending op at ns *)
  | Fetch_wait
  | Bye_wait
  | Finished

type client = {
  id : int;
  rng : Splitmix.t;
  mutable fd : Unix.file_descr option;
  inb : Protocol.Inbuf.t;
  out : Buffer.t;
  mutable out_off : int;
  mutable phase : phase;
  mutable next_seq : int;  (* the server's cursor, as last told *)
  mutable op : pending option;
  arrivals : int Queue.t;  (* arrival timestamps not yet submitted *)
  mutable next_arrival_ns : int;
  mutable conn_attempts : int;
  mutable conn_started_ns : int;  (* first failed connect of this outage *)
  mutable reader : bool;  (* performs the final counter read *)
  mutable got_value : int option;
  mutable slot : int;  (* index in the poll set; -1 while it has no fd *)
  mutable degraded : bool;
      (* refused [R_degraded]: the store is sticky-degraded, so once the
         op in flight is resolved the client writes nothing more *)
}

type totals = {
  mutable sent : int;
  mutable acked : int;
  mutable adopted : int;
  mutable shed : int;
  mutable timeouts : int;
  mutable degraded : int;
  mutable draining : int;
  mutable bad_seq : int;
  mutable aborted : int;
  mutable dropped : int;
  mutable reconnects : int;
  mutable conn_failures : int;
  mutable confirmed_this_pass : int;
}

let run ?audit cfg =
  (* writes race the server closing fds (shed, idle reap, crash arms):
     without this an unlucky write kills the whole generator with
     SIGPIPE instead of surfacing the per-connection EPIPE handled
     below *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev_pipe)
  @@ fun () ->
  let audit = match audit with Some a -> a | None -> Audit.create () in
  let t =
    {
      sent = 0; acked = 0; adopted = 0; shed = 0;
      timeouts = 0; degraded = 0; draining = 0; bad_seq = 0; aborted = 0;
      dropped = 0; reconnects = 0; conn_failures = 0;
      confirmed_this_pass = 0;
    } [@ocamlformat "disable"]
  in
  let lats = ref (Array.make 4096 0) in
  let nlat = ref 0 in
  let record_latency ns =
    if !nlat = Array.length !lats then begin
      let bigger = Array.make (2 * !nlat) 0 in
      Array.blit !lats 0 bigger 0 !nlat;
      lats := bigger
    end;
    !lats.(!nlat) <- ns / 1000;
    incr nlat
  in
  let start_ns = now_ns () in
  let t_end = start_ns + (cfg.duration_ms * 1_000_000) in
  let pass_deadline =
    t_end + (max cfg.connect_timeout_ms 1_000 * 1_000_000)
  in
  let clients =
    Array.init cfg.clients (fun i ->
        let id = cfg.first_client + i in
        let rng = Splitmix.create (cfg.seed + (id * 7919)) in
        let first_gap =
          if cfg.duration_ms = 0 || cfg.rate_hz <= 0. then max_int
          else int_of_float (Splitmix.float rng (2e9 /. cfg.rate_hz))
        in
        {
          id;
          rng;
          fd = None;
          inb = Protocol.Inbuf.create ();
          out = Buffer.create 128;
          out_off = 0;
          phase = Sleeping start_ns;
          next_seq = 0;
          op =
            (match Hashtbl.find_opt audit.Audit.outstanding id with
            | Some seq ->
                Some { seq; arrival_ns = 0; attempts = 0 }
            | None -> None);
          arrivals = Queue.create ();
          next_arrival_ns =
            (if first_gap = max_int then max_int else start_ns + first_gap);
          conn_attempts = 0;
          conn_started_ns = 0;
          reader = i = 0;
          got_value = None;
          slot = -1;
          degraded = false;
        })
  in
  (* The poll set holds one entry per client with an fd; [polled.(i)] is
     the client at index [i]. *)
  let poll = Netpoll.create ~initial:(cfg.clients + 4) () in
  let polled = Array.copy clients in
  let out_pending c = Buffer.length c.out - c.out_off in
  let send c codec msg = Protocol.write_frame c.out codec msg in
  let close_fd c =
    (match c.fd with
    | Some fd ->
        (* swap-remove, mirroring [Netpoll.remove] *)
        let last = Netpoll.length poll - 1 in
        Netpoll.remove poll c.slot;
        let moved = polled.(last) in
        polled.(c.slot) <- moved;
        moved.slot <- c.slot;
        c.slot <- -1;
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    c.fd <- None;
    Buffer.clear c.out;
    c.out_off <- 0
  in
  let backoff_ns c attempt =
    let base =
      min
        (cfg.backoff_base_ms * (1 lsl min (max (attempt - 1) 0) 20))
        cfg.backoff_cap_ms
    in
    (base + Splitmix.int c.rng (base + 1)) * 1_000_000
  in
  (* Give up on this client's connection for the pass; its in-doubt op
     (if any) carries over through the audit. *)
  let give_up c =
    close_fd c;
    t.conn_failures <- t.conn_failures + 1;
    (match c.op with
    | Some op when op.seq >= 0 -> Audit.in_doubt audit ~client:c.id ~seq:op.seq
    | _ -> ());
    c.phase <- Finished
  in
  let reconnect ?(delay_ns = 0) c =
    close_fd c;
    t.reconnects <- t.reconnects + 1;
    if c.conn_attempts = 0 then c.conn_started_ns <- now_ns ();
    c.phase <- Sleeping (now_ns () + delay_ns)
  in
  let finish_op c ~confirm_kind =
    (match c.op with
    | None -> ()
    | Some op ->
        Audit.confirm audit ~client:c.id ~seq:op.seq;
        t.confirmed_this_pass <- t.confirmed_this_pass + 1;
        (match confirm_kind with
        | `Acked -> t.acked <- t.acked + 1
        | `Adopted -> t.adopted <- t.adopted + 1);
        if op.arrival_ns > 0 then record_latency (now_ns () - op.arrival_ns));
    c.op <- None
  in
  let abort_op c =
    (match c.op with
    | Some _ ->
        t.aborted <- t.aborted + 1;
        Audit.abort audit ~client:c.id
    | None -> ());
    c.op <- None
  in
  let submit_op c =
    match c.op with
    | None -> ()
    | Some op ->
        if op.seq < 0 then op.seq <- c.next_seq;
        let deadline_ns =
          if cfg.deadline_ms = 0 || op.arrival_ns = 0 then 0
          else op.arrival_ns + (cfg.deadline_ms * 1_000_000)
        in
        send c Protocol.req_codec
          (Protocol.Submit
             {
               seq = op.seq;
               deadline_ns;
               op =
                 Onll_util.Codec.encode Onll_specs.Counter.update_codec
                   Onll_specs.Counter.Increment;
             });
        t.sent <- t.sent + 1;
        c.phase <- Ack_wait
  in
  let start_connect c now =
    let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    c.fd <- Some fd;
    c.slot <- Netpoll.length poll;
    polled.(c.slot) <- c;
    Netpoll.add poll fd 0;
    match Unix.connect fd (ADDR_UNIX cfg.socket_path) with
    | () ->
        send c Protocol.req_codec
          (Protocol.Hello { client = c.id; token = cfg.token; tier = cfg.tier });
        c.phase <- Hello_wait
    | exception Unix.Unix_error (EINPROGRESS, _, _) -> c.phase <- Connecting
    | exception
        Unix.Unix_error ((ECONNREFUSED | ENOENT | EAGAIN | EINTR), _, _) ->
        close_fd c;
        c.conn_attempts <- c.conn_attempts + 1;
        if c.conn_attempts = 1 then c.conn_started_ns <- now;
        if
          now - c.conn_started_ns
          > cfg.connect_timeout_ms * 1_000_000
        then give_up c
        else c.phase <- Sleeping (now + backoff_ns c c.conn_attempts)
  in
  (* Wind-down: the issuing window is over and this client has nothing
     left in flight — read (if the designated reader) and say goodbye.
     The reader holds its counter read until every other client is past
     durable work (Bye sent or gone): a re-attach resolution can still
     re-invoke an in-doubt op server-side, and a read taken before it
     lands would under-count ops the audit rightly treats as confirmed. *)
  let wind_down c =
    match c.fd with
    | None -> c.phase <- Finished
    | Some _ ->
        if c.reader && c.got_value = None then begin
          if
            Array.for_all
              (fun c' ->
                c' == c
                || match c'.phase with Bye_wait | Finished -> true | _ -> false)
              clients
          then begin
            send c Protocol.req_codec (Protocol.Fetch { op = "" });
            c.phase <- Fetch_wait
          end
          (* else stay Ready; re-checked on the next tick *)
        end
        else begin
          send c Protocol.req_codec Protocol.Bye;
          c.phase <- Bye_wait
        end
  in
  let on_resp c now (resp : Protocol.resp) =
    match resp with
    | Protocol.Attached { next_seq; resolution } -> (
        c.next_seq <- next_seq;
        c.conn_attempts <- 0;
        c.phase <- Ready;
        match c.op with
        | None -> ()
        | Some op when op.seq < 0 -> ()  (* never submitted; Ready submits *)
        | Some op -> (
            (* a resolution is about the client's last applied op, seq
               [next_seq - 1]. One about any OTHER (older, already-acked)
               op must not be trusted for ours: every Hello reports
               [W_applied] for the last applied op, and blindly adopting
               it would phantom-confirm our newer op *)
            let names_op = op.seq = next_seq - 1 in
            match resolution with
            | Protocol.W_applied _ when names_op ->
                finish_op c ~confirm_kind:`Adopted
            | Protocol.W_unresolved _ when names_op ->
                (* still in doubt (faults raging); re-attach later *)
                reconnect ~delay_ns:(backoff_ns c (op.attempts + 1)) c;
                op.attempts <- op.attempts + 1;
                if op.attempts >= cfg.max_attempts then give_up c
            | _ ->
                if op.seq < next_seq then
                  (* applied; only the protocol ack was lost *)
                  finish_op c ~confirm_kind:`Adopted
                else if c.degraded then abort_op c
                else op.seq <- next_seq (* resubmitted by Ready below *)))
    | Protocol.Acked { seq; value = _ } ->
        c.next_seq <- seq + 1;
        finish_op c ~confirm_kind:`Acked;
        c.phase <- Ready
    | Protocol.Refused r -> (
        match r with
        | Protocol.R_overloaded -> (
            t.shed <- t.shed + 1;
            match c.op with
            | None -> c.phase <- Ready
            | Some op ->
                op.attempts <- op.attempts + 1;
                if op.attempts >= cfg.max_attempts then begin
                  (* shedding is definite: the op never went durable *)
                  abort_op c;
                  c.phase <- Ready
                end
                else
                  c.phase <-
                    Backoff_submit (now + backoff_ns c op.attempts))
        | Protocol.R_timeout ->
            t.timeouts <- t.timeouts + 1;
            (* indeterminate: resolve by re-attaching *)
            (match c.op with
            | Some op when op.seq >= 0 ->
                op.attempts <- op.attempts + 1;
                if op.attempts >= cfg.max_attempts then give_up c
                else reconnect ~delay_ns:(backoff_ns c op.attempts) c
            | _ -> c.phase <- Ready)
        | Protocol.R_degraded ->
            t.degraded <- t.degraded + 1;
            c.degraded <- true;
            (match c.op with
            | Some op when op.seq >= 0 ->
                (* fate unknown; resolve once by re-attaching *)
                reconnect ~delay_ns:(backoff_ns c 1) c
            | _ ->
                abort_op c;
                c.phase <- Ready)
        | Protocol.R_draining ->
            (* definite refusal before durable work; server is leaving *)
            t.draining <- t.draining + 1;
            abort_op c;
            close_fd c;
            c.phase <- Finished
        | Protocol.R_bad_seq expected ->
            t.bad_seq <- t.bad_seq + 1;
            c.next_seq <- expected;
            (match c.op with
            | Some op -> op.seq <- expected
            | None -> ());
            c.phase <- Ready
        | Protocol.R_not_attached ->
            send c Protocol.req_codec
              (Protocol.Hello { client = c.id; token = cfg.token; tier = cfg.tier });
            c.phase <- Hello_wait
        | Protocol.R_bad_token | Protocol.R_bad_client | Protocol.R_bad_op
        | Protocol.R_bad_tier ->
            give_up c)
    | Protocol.Got v ->
        c.got_value <- Some v;
        send c Protocol.req_codec Protocol.Bye;
        c.phase <- Bye_wait
    | Protocol.Pong -> ()
    | Protocol.Gone ->
        close_fd c;
        c.phase <- Finished
  in
  let scratch = Bytes.create 65536 in
  let read_client c now =
    match c.fd with
    | None -> ()
    | Some fd ->
        let continue = ref true in
        let died = ref false in
        while !continue do
          match Unix.read fd scratch 0 (Bytes.length scratch) with
          | 0 ->
              died := true;
              continue := false
          | n ->
              Protocol.Inbuf.add c.inb scratch n;
              if n < Bytes.length scratch then continue := false
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
              continue := false
          | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
              died := true;
              continue := false
        done;
        (let continue = ref true in
         while !continue do
           match Protocol.Inbuf.pop c.inb Protocol.resp_codec with
           | Some resp -> on_resp c now resp
           | None -> continue := false
           | exception
               ( Protocol.Inbuf.Oversized_frame
               | Onll_util.Codec.Decode_error _ ) ->
               died := true;
               continue := false
         done);
        if !died && c.phase <> Finished then
          if c.phase = Bye_wait then begin
            close_fd c;
            c.phase <- Finished
          end
          else reconnect ~delay_ns:(backoff_ns c 1) c
  in
  let flush_client c =
    match c.fd with
    | None -> ()
    | Some fd ->
        let n = out_pending c in
        if n > 0 then begin
          let s = Buffer.to_bytes c.out in
          match Unix.write fd s c.out_off n with
          | written ->
              c.out_off <- c.out_off + written;
              if out_pending c = 0 then begin
                Buffer.clear c.out;
                c.out_off <- 0
              end
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
          | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
              if c.phase = Bye_wait then begin
                close_fd c;
                c.phase <- Finished
              end
              else reconnect ~delay_ns:(backoff_ns c 1) c
        end
  in
  (* Interest bits change in place at the client's index. *)
  let arm c =
    if c.slot >= 0 then
      Netpoll.set_interest poll c.slot
        (match c.phase with
        | Connecting -> Netpoll.pollout
        | _ ->
            Netpoll.pollin
            lor if out_pending c > 0 then Netpoll.pollout else 0)
  in
  let last_churn = ref start_ns in
  let churn_rng = Splitmix.create (cfg.seed lxor 0xc4212) in
  let all_done = ref false in
  while not !all_done do
    let now = now_ns () in
    let issuing = cfg.duration_ms > 0 && now < t_end in
    (* open-loop arrivals *)
    if issuing then
      Array.iter
        (fun c ->
          while c.next_arrival_ns <= now do
            Queue.push c.next_arrival_ns c.arrivals;
            let u = Splitmix.float c.rng 1.0 in
            let gap_s = -.log (1.0 -. u) /. cfg.rate_hz in
            c.next_arrival_ns <-
              c.next_arrival_ns + max 1 (int_of_float (gap_s *. 1e9))
          done)
        clients;
    (* churn flood: a seeded fraction of connected clients hard-close *)
    if
      issuing && cfg.churn_every_ms > 0
      && now - !last_churn >= cfg.churn_every_ms * 1_000_000
    then begin
      last_churn := now;
      Array.iter
        (fun c ->
          match c.phase with
          | (Ready | Ack_wait | Hello_wait) when
              Splitmix.float churn_rng 1.0 < cfg.churn_frac ->
              reconnect ~delay_ns:(backoff_ns c 1) c
          | _ -> ())
        clients
    end;
    (* per-client state transitions *)
    Array.iter
      (fun c ->
        (match c.phase with
        | Sleeping at when now >= at ->
            if now > pass_deadline then give_up c else start_connect c now
        | Backoff_submit at when now >= at -> submit_op c
        | Ready ->
            if c.op <> None then submit_op c
            else if (not c.degraded) && not (Queue.is_empty c.arrivals) then
            begin
              let arrival = Queue.pop c.arrivals in
              c.op <- Some { seq = -1; arrival_ns = arrival; attempts = 0 };
              submit_op c
            end
            else if not issuing then wind_down c
        | _ -> ());
        flush_client c;
        arm c)
      clients;
    (* poll *)
    if Netpoll.length poll > 0 then begin
      (* an arrival is due only at an idle client; the others act on
         socket readiness *)
      let due =
        Array.fold_left
          (fun due c ->
            match c.phase with
            | Sleeping at | Backoff_submit at -> min due at
            | Ready when issuing -> min due c.next_arrival_ns
            | _ -> due)
          max_int clients
      in
      ignore
        (Netpoll.wait poll ~timeout_ms:(poll_timeout_ms ~now:(now_ns ()) ~due)
          : int);
      let now = now_ns () in
      (* a callback may close only its own client, which Netpoll.ready
         allows *)
      Netpoll.ready poll (fun i revents ->
          let c = polled.(i) in
          match (c.phase, c.fd) with
          | Connecting, Some fd ->
              if revents land (Netpoll.pollout lor Netpoll.pollerr) <> 0
              then begin
                match Unix.getsockopt_error fd with
                | None ->
                    send c Protocol.req_codec
                      (Protocol.Hello { client = c.id; token = cfg.token; tier = cfg.tier });
                    c.phase <- Hello_wait;
                    flush_client c
                | Some _ ->
                    close_fd c;
                    c.conn_attempts <- c.conn_attempts + 1;
                    c.phase <- Sleeping (now + backoff_ns c c.conn_attempts)
              end
          | _ ->
              if revents land Netpoll.pollerr <> 0 then begin
                if c.phase = Bye_wait then begin
                  close_fd c;
                  c.phase <- Finished
                end
                else reconnect ~delay_ns:(backoff_ns c 1) c
              end
              else begin
                if revents land Netpoll.pollin <> 0 then read_client c now;
                if revents land Netpoll.pollout <> 0 then flush_client c
              end)
    end
    else Unix.sleepf 0.002;
    (* end conditions *)
    let now = now_ns () in
    if now > pass_deadline then begin
      Array.iter
        (fun c -> if c.phase <> Finished then give_up c)
        clients;
      all_done := true
    end
    else
      all_done :=
        Array.for_all (fun c -> c.phase = Finished) clients
  done;
  (* drop arrivals that never got submitted *)
  Array.iter
    (fun c ->
      t.dropped <- t.dropped + Queue.length c.arrivals;
      Queue.clear c.arrivals)
    clients;
  let wall_ms = (now_ns () - start_ns) / 1_000_000 in
  let lat = Array.sub !lats 0 !nlat in
  Array.sort compare lat;
  let pct p =
    if Array.length lat = 0 then 0
    else
      lat.(min
             (Array.length lat - 1)
             (int_of_float (p *. float_of_int (Array.length lat - 1))))
  in
  let final_value =
    Array.fold_left
      (fun acc c -> match c.got_value with Some v -> Some v | None -> acc)
      None clients
  in
  let denom = t.shed + t.confirmed_this_pass + t.aborted in
  {
    r_sent = t.sent;
    r_confirmed = t.confirmed_this_pass;
    r_acked = t.acked;
    r_adopted = t.adopted;
    r_shed = t.shed;
    r_timeouts = t.timeouts;
    r_degraded = t.degraded;
    r_draining = t.draining;
    r_bad_seq = t.bad_seq;
    r_aborted = t.aborted;
    r_dropped_arrivals = t.dropped;
    r_reconnects = t.reconnects;
    r_conn_failures = t.conn_failures;
    r_unresolved = Audit.unresolved audit;
    r_wall_ms = wall_ms;
    r_p50_us = pct 0.50;
    r_p99_us = pct 0.99;
    r_p999_us = pct 0.999;
    r_goodput =
      (if wall_ms = 0 then 0.
       else float_of_int t.confirmed_this_pass /. (float_of_int wall_ms /. 1e3));
    r_shed_rate =
      (if denom = 0 then 0. else float_of_int t.shed /. float_of_int denom);
    r_final_value = final_value;
  }
