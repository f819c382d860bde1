/* A SIGPROF sampling profiler for one process, loaded with LD_PRELOAD.

   At load it copies /proc/self/maps to $C4_PROF_OUT.maps, maps
   $C4_PROF_OUT.pcs (MAP_SHARED, so the samples survive a SIGKILL) and
   arms ITIMER_PROF at 1 ms of the process's CPU time. Each tick the
   handler stores the interrupted program counter, if the tick falls
   between $C4_PROF_FROM_S and $C4_PROF_TO_S seconds after exec
   (default: from 0, forever). The .pcs file is a count word followed by
   up to $C4_PROF_MAX (default 1,000,000) 8-byte PCs.

   It unsets LD_PRELOAD first, so nothing the process starts loads it,
   and it touches nothing outside the process but the two files.
   Linux only (x86-64 and aarch64). Build and use: see bench/README.md. */

#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

static uint64_t *samples; /* [0]: count; [1 ..]: PCs */
static uint64_t max_samples;
static int64_t from_ns, to_ns, exec_ns;

static int64_t now_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

static uintptr_t interrupted_pc(void *uc)
{
  ucontext_t *ctx = uc;
#if defined(__x86_64__)
  return (uintptr_t)ctx->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)ctx->uc_mcontext.pc;
#else
  (void)ctx;
  return 0;
#endif
}

static void on_prof(int sig, siginfo_t *info, void *uc)
{
  (void)sig;
  (void)info;
  int64_t since = now_ns() - exec_ns;
  if (since < from_ns || since >= to_ns) return;
  uint64_t i = __atomic_fetch_add(&samples[0], 1, __ATOMIC_RELAXED);
  if (i < max_samples) samples[1 + i] = interrupted_pc(uc);
}

/* The process's start: field 22 of /proc/self/stat, in clock ticks
   since boot, against CLOCK_MONOTONIC (also since boot on Linux). */
static int64_t exec_time_ns(void)
{
  char buf[1024];
  int fd = open("/proc/self/stat", O_RDONLY);
  if (fd < 0) return now_ns();
  ssize_t n = read(fd, buf, sizeof buf - 1);
  close(fd);
  if (n <= 0) return now_ns();
  buf[n] = 0;
  char *p = strrchr(buf, ')');
  if (p == NULL) return now_ns();
  unsigned long long start = 0;
  /* After ")": state is field 3, starttime field 22. */
  if (sscanf(p + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %*u %*u %*d %*d %*d %*d %*d %*d %llu",
             &start) != 1)
    return now_ns();
  return (int64_t)(start * (1000000000ULL / (unsigned long long)sysconf(_SC_CLK_TCK)));
}

static void copy_file(const char *from, const char *to)
{
  int in = open(from, O_RDONLY);
  int out = open(to, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  char buf[65536];
  ssize_t n;
  if (in >= 0 && out >= 0)
    while ((n = read(in, buf, sizeof buf)) > 0)
      if (write(out, buf, (size_t)n) != n) break;
  if (in >= 0) close(in);
  if (out >= 0) close(out);
}

static double env_seconds(const char *name, double dflt)
{
  const char *v = getenv(name);
  return v != NULL ? atof(v) : dflt;
}

__attribute__((constructor)) static void c4_prof_start(void)
{
  unsetenv("LD_PRELOAD");
  const char *out = getenv("C4_PROF_OUT");
  if (out == NULL) return;
  char path[4096];
  const char *max = getenv("C4_PROF_MAX");
  max_samples = max != NULL ? strtoull(max, NULL, 10) : 1000000;
  from_ns = (int64_t)(env_seconds("C4_PROF_FROM_S", 0.0) * 1e9);
  to_ns = (int64_t)(env_seconds("C4_PROF_TO_S", 1e9) * 1e9);
  exec_ns = exec_time_ns();
  snprintf(path, sizeof path, "%s.maps", out);
  copy_file("/proc/self/maps", path);
  snprintf(path, sizeof path, "%s.pcs", out);
  int fd = open(path, O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  size_t bytes = (size_t)(max_samples + 1) * sizeof(uint64_t);
  if (ftruncate(fd, (off_t)bytes) != 0) {
    close(fd);
    return;
  }
  void *m = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (m == MAP_FAILED) return;
  samples = m;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = { { 0, 1000 }, { 0, 1000 } };
  setitimer(ITIMER_PROF, &it, NULL);
}
