/* poll(2) for the socket front-end.

   Unix.select is FD_SETSIZE-bound (1024 on glibc) regardless of the
   process's rlimit, so a server or load generator holding thousands of
   connections cannot use it. This stub polls a caller-owned pair of int
   arrays (fds / interest) and writes back only the entries that are
   ready, as (index, result bits) pairs, so the caller's ready pass costs
   per ready descriptor rather than per registered one. Interest and
   result bits are our own, stable encoding: 1 = readable, 2 = writable,
   4 = error or hangup (POLLERR | POLLHUP | POLLNVAL). */

#include <poll.h>
#include <stdlib.h>
#include <errno.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>

#define ONLL_POLL_IN 1
#define ONLL_POLL_OUT 2
#define ONLL_POLL_ERR 4

CAMLprim value onll_poll(value vfds, value vevents, value vready, value vn,
                         value vtimeout_ms)
{
  CAMLparam5(vfds, vevents, vready, vn, vtimeout_ms);
  int n = Int_val(vn);
  int timeout = Int_val(vtimeout_ms);
  struct pollfd *pfds = NULL;
  int i, r, k;

  if (n < 0 || n > Wosize_val(vfds) || n > Wosize_val(vevents) ||
      2 * n > Wosize_val(vready))
    caml_invalid_argument("Netpoll.poll: n out of bounds");

  if (n > 0) {
    pfds = malloc((size_t)n * sizeof *pfds);
    if (pfds == NULL) caml_raise_out_of_memory();
    for (i = 0; i < n; i++) {
      int ev = Int_val(Field(vevents, i));
      pfds[i].fd = Int_val(Field(vfds, i));
      pfds[i].events = (short)(((ev & ONLL_POLL_IN) ? POLLIN : 0) |
                               ((ev & ONLL_POLL_OUT) ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
  }

  caml_release_runtime_system();
  r = poll(pfds, (nfds_t)n, timeout);
  caml_acquire_runtime_system();

  if (r < 0) {
    int e = errno;
    free(pfds);
    if (e == EINTR) CAMLreturn(Val_int(-1)); /* interrupted: caller rechecks */
    caml_failwith("Netpoll.poll: poll(2) failed");
  }

  /* poll returns how many entries have non-zero revents: stop once all
     of them have been seen */
  for (i = 0, k = 0; i < n && r > 0; i++) {
    short re = pfds[i].revents;
    int out;
    if (re == 0) continue;
    r--;
    out = ((re & POLLIN) ? ONLL_POLL_IN : 0) |
          ((re & POLLOUT) ? ONLL_POLL_OUT : 0) |
          ((re & (POLLERR | POLLHUP | POLLNVAL)) ? ONLL_POLL_ERR : 0);
    if (out == 0) continue;
    Store_field(vready, 2 * k, Val_int(i));
    Store_field(vready, 2 * k + 1, Val_int(out));
    k++;
  }
  free(pfds);
  CAMLreturn(Val_int(k));
}
