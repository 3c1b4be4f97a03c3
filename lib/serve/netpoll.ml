(* poll(2) wrapper (see netpoll.mli). *)

let pollin = 1
let pollout = 2
let pollerr = 4

external poll_raw : int array -> int array -> int array -> int -> int -> int
  = "onll_poll"

external fd_int : Unix.file_descr -> int = "%identity"

type t = {
  mutable fds : int array;
  mutable events : int array;
  mutable ready : int array;  (* (index, result bits) pairs of the last wait *)
  mutable n : int;
  mutable nready : int;  (* pairs in [ready] not yet reported *)
}

let create ?(initial = 64) () =
  let initial = max initial 1 in
  {
    fds = Array.make initial 0;
    events = Array.make initial 0;
    ready = Array.make (2 * initial) 0;
    n = 0;
    nready = 0;
  }

let length t = t.n

let grow t =
  let cap = Array.length t.fds * 2 in
  let copy a len = Array.append a (Array.make (len - Array.length a) 0) in
  t.fds <- copy t.fds cap;
  t.events <- copy t.events cap;
  t.ready <- copy t.ready (2 * cap)

let add t fd interest =
  if t.n = Array.length t.fds then grow t;
  t.fds.(t.n) <- fd_int fd;
  t.events.(t.n) <- interest;
  t.n <- t.n + 1

let check t i name =
  if i < 0 || i >= t.n then invalid_arg ("Netpoll." ^ name ^ ": no such index")

let set_interest t i interest =
  check t i "set_interest";
  t.events.(i) <- interest

let remove t i =
  check t i "remove";
  let last = t.n - 1 in
  t.fds.(i) <- t.fds.(last);
  t.events.(i) <- t.events.(last);
  t.n <- last

let wait t ~timeout_ms =
  let r = poll_raw t.fds t.events t.ready t.n timeout_ms in
  (* an interrupted wait stores no result bits: report nothing, never the
     previous wait's events *)
  t.nready <- max r 0;
  r

let ready t f =
  let k = t.nready in
  t.nready <- 0;
  for j = k - 1 downto 0 do
    f t.ready.(2 * j) t.ready.((2 * j) + 1)
  done
