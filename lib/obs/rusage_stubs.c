/* getrusage(RUSAGE_SELF) for the runtime probes: the OCaml stdlib
   exposes CPU time via Unix.times but not the peak RSS, which is the
   number a long-running counting service most wants on a dashboard.
   Also the monotonic clock, which the stdlib does not expose either. */

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#include <sys/resource.h>
#include <sys/time.h>
#include <time.h>

static double tv_seconds(struct timeval tv)
{
  return (double)tv.tv_sec + (double)tv.tv_usec * 1e-6;
}

/* Returns (max_rss_bytes, user_s, sys_s) as a float triple.
   ru_maxrss is kilobytes on Linux but bytes on macOS; normalize here
   so OCaml sees bytes either way.  On failure returns zeros — a probe
   must never take the process down. */
CAMLprim value mcml_obs_getrusage(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  struct rusage ru;
  double rss = 0.0, user = 0.0, sys = 0.0;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#ifdef __APPLE__
    rss = (double)ru.ru_maxrss;
#else
    rss = (double)ru.ru_maxrss * 1024.0;
#endif
    user = tv_seconds(ru.ru_utime);
    sys = tv_seconds(ru.ru_stime);
  }
  res = caml_alloc_tuple(3);
  Store_field(res, 0, caml_copy_double(rss));
  Store_field(res, 1, caml_copy_double(user));
  Store_field(res, 2, caml_copy_double(sys));
  CAMLreturn(res);
}

/* CLOCK_MONOTONIC in seconds: the clock behind every span duration and
   count deadline.  The native entry returns an unboxed double and
   allocates nothing; the bytecode entry boxes it. */
double mcml_obs_monotonic_s(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

CAMLprim value mcml_obs_monotonic_s_byte(value unit)
{
  return caml_copy_double(mcml_obs_monotonic_s(unit));
}
