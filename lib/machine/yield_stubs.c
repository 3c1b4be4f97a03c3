/* Native machine: surrender the OS timeslice.

   Domain.cpu_relax is a PAUSE hint — correct when the peer runs on
   another core, catastrophic when domains outnumber cores (the spinner
   burns the whole slice the lock holder needs; a lock handoff then costs
   a preemption quantum, milliseconds instead of microseconds).
   sched_yield moves the caller to the back of the run queue, so the
   handoff costs one context switch. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <sched.h>
#include <time.h>

CAMLprim value onll_sched_yield(value unit)
{
  sched_yield();
  return Val_unit;
}

/* Monotonic nanoseconds. The emulated fence spins against this clock and
   fsync timing reads it, so neither may see wall-clock (NTP) steps. The
   unboxed variant allocates nothing: native code calls it in the fence's
   busy-wait loop. */
int64_t onll_monotonic_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

CAMLprim value onll_monotonic_ns(value unit)
{
  return caml_copy_int64(onll_monotonic_ns_unboxed(unit));
}
