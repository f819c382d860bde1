(** Thin binding to poll(2) for the runtime's worker loops.

    [Unix.select] cannot serve here: [fd_set] is indexed by fd {e value}
    and capped at [FD_SETSIZE] (1024), so any connection whose fd number
    exceeds 1023 — routine at the 10k+ connections a server
    targets — is unrepresentable. poll(2) has no such cap; the stub
    binds nothing else.

    The interest set is expressed as three parallel arrays (caller
    allocated, reused across calls; only the first [n] entries are
    consulted, so grown arrays amortise): [fds], [events] (bitwise-or
    of {!pollin} / {!pollout}; [0] = error conditions only) and
    [revents], which the call overwrites. The runtime lock is released
    for the duration of the syscall, so worker domains polling
    concurrently do not serialise each other. *)

val pollin : int
val pollout : int

val readable : int -> bool
val writable : int -> bool

(** Error/hangup/invalid-fd condition — reported even when not
    requested, per poll(2). *)
val errored : int -> bool

(** [poll ~fds ~events ~revents ~n ~timeout_ms] polls the first [n]
    entries, blocking up to [timeout_ms] milliseconds ([-1] =
    indefinitely), and fills [revents]; returns the number of entries
    with nonzero [revents]. A signal interruption ([EINTR]) returns
    [0], as if the timeout fired. Raises [Invalid_argument] when [n]
    exceeds an array's length and [Failure] on any other poll
    failure. *)
val poll :
  fds:Unix.file_descr array ->
  events:int array ->
  revents:int array ->
  n:int ->
  timeout_ms:int ->
  int

(** [CLOCK_MONOTONIC] in ns, read without allocating: durations only. *)
external now_ns : unit -> (int[@untagged]) = "c4_now_ns_byte" "c4_now_ns" [@@noalloc]
