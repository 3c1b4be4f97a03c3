(* Socket shell (see server.mli). *)

let now_ns () = Int64.to_int (Onll_machine.Native.monotonic_ns ())
let now_ms () = now_ns () / 1_000_000

(* Process-global so the SIGTERM handler needs no server handle. *)
let drain_requested = ref false
let request_drain () = drain_requested := true

type config = {
  socket_path : string;
  idle_timeout_ms : int;
  max_conns : int;
  drain_grace_ms : int;
  on_ready : unit -> unit;
}

let default_config ~socket_path =
  {
    socket_path;
    idle_timeout_ms = 30_000;
    max_conns = 12_000;
    drain_grace_ms = 2_000;
    on_ready = ignore;
  }

module Make (M : Onll_machine.Machine_sig.S) = struct
  module Svc = Service.Make (M)

  type conn = {
    fd : Unix.file_descr;
    inb : Protocol.Inbuf.t;
    out : Buffer.t;
    mutable out_off : int;  (* bytes of [out] already written *)
    sconn : Svc.conn;
    mutable last_ms : int;
    mutable close_after_flush : bool;
    mutable slot : int;  (* its index in the poll set and in [slots] *)
    mutable polls_out : bool;  (* [pollout] is in its interest bits *)
    mutable doomed : bool;  (* queued to close after this pass *)
  }

  let out_pending c = Buffer.length c.out - c.out_off

  let new_conn fd now =
    {
      fd;
      inb = Protocol.Inbuf.create ();
      out = Buffer.create 256;
      out_off = 0;
      sconn = Svc.conn ();
      last_ms = now;
      close_after_flush = false;
      slot = 0;
      polls_out = false;
      doomed = false;
    }

  let run svc cfg =
    let listener = Unix.socket PF_UNIX SOCK_STREAM 0 in
    let prev_term =
      Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_drain ()))
    in
    let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    drain_requested := false;
    (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
    Unix.bind listener (ADDR_UNIX cfg.socket_path);
    Unix.listen listener 1024;
    Unix.set_nonblock listener;
    cfg.on_ready ();
    (* The connection table: [slots.(i)] is the connection polled at index
       [i] of [poll]; index 0 is the listener while it is open, and its
       slot (like every unused one) holds [vacant]. *)
    let poll = Netpoll.create () in
    let vacant = new_conn listener 0 in
    (* small, so that it is made in the minor heap: a major-heap array
       made with a young value forces a minor collection *)
    let slots = ref (Array.make 64 vacant) in
    Netpoll.add poll listener Netpoll.pollin;
    (* for reads and writes alike: each copies its bytes out before the
       next one runs *)
    let scratch = Bytes.create 65536 in
    let listening = ref true in
    let drain_deadline = ref max_int in
    let doomed = ref [] in
    (* Swap-remove, mirroring [Netpoll.remove]. *)
    let remove_slot i =
      let last = Netpoll.length poll - 1 in
      Netpoll.remove poll i;
      let moved = !slots.(last) in
      !slots.(i) <- moved;
      moved.slot <- i;
      !slots.(last) <- vacant
    in
    let close_conn c =
      remove_slot c.slot;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    in
    let reap () =
      List.iter close_conn !doomed;
      doomed := []
    in
    let doom c =
      if not c.doomed then begin
        c.doomed <- true;
        doomed := c :: !doomed
      end
    in
    (* After any read or write on [c]: its interest bits change only when
       its pending output crosses zero, and a connection that is done and
       flushed is queued to close. *)
    let settle c =
      let want = out_pending c > 0 in
      if want <> c.polls_out then begin
        c.polls_out <- want;
        Netpoll.set_interest poll c.slot
          (if want then Netpoll.pollin lor Netpoll.pollout else Netpoll.pollin)
      end;
      if c.close_after_flush && not want then doom c
    in
    (* Flush as much of the response buffer as the socket accepts. *)
    let flush_out c =
      let continue = ref true in
      while !continue && out_pending c > 0 do
        let n = min (out_pending c) (Bytes.length scratch) in
        Buffer.blit c.out c.out_off scratch 0 n;
        match Unix.single_write c.fd scratch 0 n with
        | written ->
            c.out_off <- c.out_off + written;
            if written < n then continue := false
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
            continue := false
        | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
            c.close_after_flush <- true;
            Buffer.clear c.out;
            c.out_off <- 0
      done;
      if out_pending c = 0 then begin
        Buffer.clear c.out;
        c.out_off <- 0
      end
    in
    let accept_new now =
      let continue = ref true in
      while !continue do
        match Unix.accept ~cloexec:true listener with
        | fd, _ ->
            (* the listener holds index 0 *)
            if Netpoll.length poll - 1 >= cfg.max_conns then Unix.close fd
            else begin
              Unix.set_nonblock fd;
              let c = new_conn fd now in
              c.slot <- Netpoll.length poll;
              if c.slot = Array.length !slots then
                slots :=
                  Array.append !slots (Array.make (Array.length !slots) vacant);
              !slots.(c.slot) <- c;
              Netpoll.add poll fd Netpoll.pollin
            end
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
            continue := false
        | exception Unix.Unix_error (EINTR, _, _) -> ()
      done
    in
    (* Drain every complete frame currently buffered on [c]. The deadline
       check runs here, before the service core ever sees the request, so
       an expired submit is shed with zero durable work. *)
    let handle_frames c =
      let continue = ref true in
      while !continue do
        match Protocol.Inbuf.pop c.inb Protocol.req_codec with
        | None -> continue := false
        | Some req -> (
            let resp =
              match req with
              | Protocol.Submit { deadline_ns; _ }
                when deadline_ns > 0 && now_ns () > deadline_ns ->
                  Protocol.Refused Protocol.R_timeout
              | req -> Svc.handle svc c.sconn req
            in
            Protocol.write_frame c.out Protocol.resp_codec resp;
            match req with
            | Protocol.Bye ->
                c.close_after_flush <- true;
                continue := false
            | _ -> ())
        | exception
            ( Protocol.Inbuf.Oversized_frame | Onll_util.Codec.Decode_error _ )
          ->
            c.close_after_flush <- true;
            continue := false
      done
    in
    let read_conn c now =
      let continue = ref true in
      while !continue do
        match Unix.read c.fd scratch 0 (Bytes.length scratch) with
        | 0 ->
            c.close_after_flush <- true;
            continue := false
        | n ->
            c.last_ms <- now;
            Protocol.Inbuf.add c.inb scratch n;
            if n < Bytes.length scratch then continue := false
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
            continue := false
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
            c.close_after_flush <- true;
            continue := false
      done;
      handle_frames c
    in
    (* Idle connections are looked for on a coarse cadence, not on every
       iteration: each is reaped at most [sweep_ms] past its timeout. *)
    let sweep_ms = max 100 (cfg.idle_timeout_ms / 10) in
    let next_sweep = ref (now_ms () + sweep_ms) in
    let sweep_idle now =
      next_sweep := now + sweep_ms;
      for i = 0 to Netpoll.length poll - 1 do
        let c = !slots.(i) in
        if c != vacant && now - c.last_ms > cfg.idle_timeout_ms then doom c
      done
    in
    let finished = ref false in
    while not !finished do
      (* entering drain: stop accepting, refuse new durable work, flush *)
      if !drain_requested && not (Svc.draining svc) then begin
        Svc.drain svc;
        if !listening then begin
          listening := false;
          remove_slot 0;
          (try Unix.close listener with Unix.Unix_error _ -> ());
          (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
        end;
        drain_deadline := now_ms () + cfg.drain_grace_ms;
        (* answer everything already buffered (the in-flight ops): each
           gets a definite response — R_draining for new work *)
        for i = 0 to Netpoll.length poll - 1 do
          let c = !slots.(i) in
          handle_frames c;
          flush_out c;
          settle c
        done;
        reap ()
      end;
      let _n = Netpoll.wait poll ~timeout_ms:100 in
      let now = now_ms () in
      Netpoll.ready poll (fun i revents ->
          if i = 0 && !listening then accept_new now
          else begin
            let c = !slots.(i) in
            if revents land Netpoll.pollerr <> 0 then begin
              (* the peer is gone: nothing buffered can be delivered *)
              c.close_after_flush <- true;
              Buffer.clear c.out;
              c.out_off <- 0
            end
            else begin
              if revents land Netpoll.pollin <> 0 then read_conn c now;
              (* a connection waiting for [pollout] found its socket full:
                 it writes again only once the socket is writable *)
              if revents land Netpoll.pollout <> 0 || not c.polls_out then
                flush_out c
            end;
            settle c
          end);
      if
        cfg.idle_timeout_ms > 0
        && (not (Svc.draining svc))
        && now >= !next_sweep
      then sweep_idle now;
      reap ();
      if Svc.draining svc then begin
        let still_flushing = ref false in
        for i = 0 to Netpoll.length poll - 1 do
          if out_pending !slots.(i) > 0 then still_flushing := true
        done;
        if (not !still_flushing) || now > !drain_deadline then
          finished := true
      end
    done;
    for i = 0 to Netpoll.length poll - 1 do
      let c = !slots.(i) in
      if c != vacant then try Unix.close c.fd with Unix.Unix_error _ -> ()
    done;
    if !listening then begin
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ()
    end;
    (* the last durable action: nothing is acked after this fence *)
    Svc.quiesce svc;
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigpipe prev_pipe
end
