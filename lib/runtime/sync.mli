(** Exception-safe locking. [with_lock m f] runs [f ()] with [m] held
    and releases it on every exit path, including raising ones (an
    exception from [f] surfaces unchanged, with its backtrace). It
    allocates nothing beyond the caller's closure. This is
    the only module allowed to call [Mutex.lock] directly — the
    [bare-mutex-lock] rule in [c4_lint] enforces it repo-wide.

    [Condition.wait c m] remains legal inside the critical section: it
    atomically releases and reacquires [m], so the section still
    unlocks exactly once. *)

val with_lock : Mutex.t -> (unit -> 'a) -> 'a
