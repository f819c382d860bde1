/* Monotonic nanosecond clock for the serving benchmark's latency
   samples: Unix.gettimeofday only resolves microseconds, too coarse
   for an 80 us round trip's median. */

#include <time.h>
#include <caml/mlvalues.h>

intnat servbench_now_ns_unboxed(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value servbench_now_ns(value unit)
{
  return Val_long(servbench_now_ns_unboxed(unit));
}
