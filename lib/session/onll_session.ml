(** Exactly-once client sessions over a client table (see
    onll_session.mli). *)

module Sink = Onll_obs.Sink
module Event = Onll_obs.Event

type error = In_doubt | Overloaded | Degraded

let pp_error ppf = function
  | In_doubt -> Format.pp_print_string ppf "in doubt"
  | Overloaded -> Format.pp_print_string ppf "overloaded"
  | Degraded -> Format.pp_print_string ppf "degraded"

type config = { high_watermark : float }

let default_config = { high_watermark = 0.85 }

type ('update, 'read, 'value) backend = {
  b_update : 'update -> 'value;
  b_read : 'read -> 'value;
  b_degraded : unit -> bool;
  b_pressure : unit -> float;
  b_compact : unit -> unit;
}

module Make (S : Onll_core.Spec.S) = struct
  module T = Onll_core.Client_table.Make (S)

  type nonrec backend = (T.update_op, T.read_op, T.value) backend

  type t = {
    sink : Sink.t;
    t_client : int;
    backend : backend;
    admission : Onll_core.Admission.t;
    mutable next : int;  (* one past the client's last applied seq *)
  }

  type answer = Applied of S.value | Duplicate

  let attach ?(config = default_config) ?(sink = Sink.null) ~client backend =
    let next =
      match backend.b_read (T.Last client) with
      | T.Last_seq (Some last) -> last + 1
      | T.Last_seq None -> 0
      | T.Value _ | T.Duplicate -> invalid_arg "Onll_session.attach"
    in
    {
      sink;
      t_client = client;
      backend;
      admission = Onll_core.Admission.create ~watermark:config.high_watermark;
      next;
    }

  let next_seq t = t.next
  let pressure t = Onll_core.Admission.last t.admission

  let admit t =
    Onll_core.Admission.admit t.admission ~fill:t.backend.b_pressure
      ~compact:t.backend.b_compact

  let emit t ~seq outcome =
    if Sink.active t.sink then
      Sink.emit t.sink ~proc:t.t_client
        (Event.Session { client = t.t_client; seq; outcome })

  let submit ?seq t op =
    let seq = Option.value seq ~default:t.next in
    if seq > t.next then
      invalid_arg
        (Printf.sprintf "Onll_session.submit: seq %d is past next_seq %d" seq
           t.next);
    let outcome, r =
      if t.backend.b_degraded () then (Event.Sess_refused, Error Degraded)
      else if not (admit t) then (Event.Sess_shed, Error Overloaded)
      else
        match
          t.backend.b_update (T.Tracked { client = t.t_client; seq; op })
        with
        | T.Value v -> (Event.Sess_ok, Ok (Applied v))
        | T.Duplicate -> (Event.Sess_duplicate, Ok Duplicate)
        | T.Last_seq _ -> invalid_arg "Onll_session.submit"
        | exception Onll_nvm.Memory.Transient_fault _ ->
            (Event.Sess_in_doubt, Error In_doubt)
    in
    if Result.is_ok r then t.next <- max t.next (seq + 1);
    emit t ~seq outcome;
    r

  let read t r =
    match t.backend.b_read (T.Inner r) with
    | T.Value v -> v
    | T.Duplicate | T.Last_seq _ -> invalid_arg "Onll_session.read"
end
