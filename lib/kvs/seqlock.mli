(** Sequence lock for one partition: the reader–writer synchronisation
    the paper's KVS model assumes ("writers atomically increment the
    partition's version at the beginning and end of each update, and
    readers retry when their version checks fail", Sec. 3).

    The writer side assumes the CREW invariant — at most one writer per
    partition at a time — which is exactly what the concurrency-control
    policies under study enforce; [write_begin] asserts it. Readers are
    wait-free aside from retries and may run on other domains. *)

type t

val create : unit -> t

(** Current version; even when stable, odd while an update is in flight. *)
val version : t -> int

(** Begin an update: bumps version to odd. Raises [Failure] if an update
    is already in flight (CREW violation). *)
val write_begin : t -> unit

(** Finish an update: bumps version to even. *)
val write_end : t -> unit

(** {2 Reading}

    A read is a loop of attempts: {!read_begin}, read the protected
    data, {!read_valid}; an attempt that fails validation starts over
    with {!read_begin}. Both count {e failed attempts} into [retries]:
    an attempt that finds a write in flight waits it out and counts
    once, however long it spins, and an attempt that sees the version
    change under it counts once. Neither allocates, so a reader that
    copies the data straight into its own buffer
    ([C4_kvs.Store.read_into]) runs the loop without a closure. *)

(** Wait until no write is in flight; returns the version to validate
    against. *)
val read_begin : t -> retries:int ref -> int

(** [true] if the version is still [v0]: what was read since
    {!read_begin} returned [v0] is consistent. *)
val read_valid : t -> int -> retries:int ref -> bool

(** [read t f] runs [f] in that loop until it completes under a stable,
    unchanged version, returning the result and the number of failed
    attempts. [f] must be pure apart from reading the protected data. *)
val read : t -> (unit -> 'a) -> 'a * int

(** True while a writer is inside [write_begin]/[write_end]. *)
val write_in_flight : t -> bool
