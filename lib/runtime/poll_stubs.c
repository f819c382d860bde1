/* poll(2) binding for the runtime's worker loops.

   Unix.select is unusable here: fd_set indexes by fd *value* and is
   capped at FD_SETSIZE (1024), so a server holding tens of thousands
   of sockets cannot express its interest set at all.  poll has no such
   cap.  The stdlib's Unix module does not bind poll, hence this stub.

   Calling convention: three parallel arrays (only the first n entries
   are used, so callers can reuse grown arrays across iterations) —
   fds (Unix.file_descr, which is an int on Unix), events (bitmask:
   1 = want-read, 2 = want-write) and revents (written back: 1 =
   readable, 2 = writable, 4 = error/hup/invalid) — plus a timeout in
   milliseconds (-1 = block).  Returns the number of entries with a
   nonzero revents.  EINTR is reported as 0 ready (the caller's loop
   simply re-polls); any other failure raises Failure. */

#include <poll.h>
#include <errno.h>
#include <stdlib.h>
#include <string.h>

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/threads.h>

#define C4_POLL_IN 1
#define C4_POLL_OUT 2
#define C4_POLL_ERR 4

CAMLprim value c4_poll_stub(value v_fds, value v_events, value v_revents,
                            value v_n, value v_timeout_ms)
{
  CAMLparam5(v_fds, v_events, v_revents, v_n, v_timeout_ms);
  mlsize_t n = (mlsize_t)Int_val(v_n);
  if (Wosize_val(v_fds) < n || Wosize_val(v_events) < n ||
      Wosize_val(v_revents) < n)
    caml_failwith("c4_poll: n exceeds array length");
  struct pollfd *pfds = NULL;
  if (n > 0) {
    pfds = malloc(n * sizeof(struct pollfd));
    if (pfds == NULL) caml_failwith("c4_poll: out of memory");
  }
  for (mlsize_t i = 0; i < n; i++) {
    int ev = Int_val(Field(v_events, i));
    pfds[i].fd = Int_val(Field(v_fds, i));
    pfds[i].events = 0;
    if (ev & C4_POLL_IN) pfds[i].events |= POLLIN;
    if (ev & C4_POLL_OUT) pfds[i].events |= POLLOUT;
    pfds[i].revents = 0;
  }
  int timeout = Int_val(v_timeout_ms);
  caml_release_runtime_system();
  int rc = poll(pfds, (nfds_t)n, timeout);
  int saved_errno = errno;
  caml_acquire_runtime_system();
  if (rc < 0) {
    free(pfds);
    if (saved_errno == EINTR) CAMLreturn(Val_int(0));
    caml_failwith("c4_poll: poll failed");
  }
  for (mlsize_t i = 0; i < n; i++) {
    int re = 0;
    if (pfds[i].revents & POLLIN) re |= C4_POLL_IN;
    if (pfds[i].revents & POLLOUT) re |= C4_POLL_OUT;
    if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) re |= C4_POLL_ERR;
    Field(v_revents, i) = Val_int(re);
  }
  free(pfds);
  CAMLreturn(Val_int(rc));
}

/* The worker loops' monotonic clock, in nanoseconds: one vDSO call, no
   allocation (the OCaml side declares the result untagged). */

#include <time.h>

intnat c4_now_ns(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value c4_now_ns_byte(value unit)
{
  return Val_long(c4_now_ns(unit));
}
