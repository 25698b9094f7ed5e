/* Process accounting the runner reads from C.

   perfbench_children_max_rss: peak resident set of the largest reaped
   child process, for max_rss_mb: the server runs in a child.

   perfbench_clock_ticks: the unit of the processor times in
   /proc/PID/stat.

   perfbench_thread_cpu: the calling thread's processor time, for the
   reference kernel, which is timed on two domains at once. */

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

/* Bytes; 0.0 if the call fails.  ru_maxrss is kilobytes on Linux and
   bytes on macOS. */
CAMLprim value perfbench_children_max_rss(value unit)
{
  CAMLparam1(unit);
  struct rusage ru;
  double rss = 0.0;
  if (getrusage(RUSAGE_CHILDREN, &ru) == 0) {
#ifdef __APPLE__
    rss = (double)ru.ru_maxrss;
#else
    rss = (double)ru.ru_maxrss * 1024.0;
#endif
  }
  CAMLreturn(caml_copy_double(rss));
}

/* Clock ticks per second. */
CAMLprim value perfbench_clock_ticks(value unit)
{
  CAMLparam1(unit);
  CAMLreturn(Val_long(sysconf(_SC_CLK_TCK)));
}

/* Seconds; 0.0 if the call fails. */
CAMLprim value perfbench_thread_cpu(value unit)
{
  CAMLparam1(unit);
  struct timespec ts;
  double s = 0.0;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    s = (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
  CAMLreturn(caml_copy_double(s));
}
