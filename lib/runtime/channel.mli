(** Multi-producer single-consumer channel backing each worker's request
    queue. Besides pop, the consumer can drain every queued element
    matching a predicate — the compaction layer's dependent-write
    harvest, done under the same lock so producers never observe a
    half-drained queue. *)

type 'a t

val create : unit -> 'a t

(** Producer side; wakes a blocked consumer. *)
val push : 'a t -> 'a -> unit

(** Like {!push} but returns [false] instead of raising when the
    channel is closed — the race-free building block for callers that
    must map "closed" to their own error (e.g. the server's [Stopped]). *)
val try_push : 'a t -> 'a -> bool

(** Consumer side: block until an element is available.
    Returns [None] after {!close} once the queue drains. *)
val pop : 'a t -> 'a option

(** Nonblocking pop. *)
val try_pop : 'a t -> 'a option

(** Remove and return (in order) every queued element satisfying [f],
    or only the first [limit] of them: later matches keep their place
    in the queue. *)
val drain_matching : ?limit:int -> 'a t -> f:('a -> bool) -> 'a list

val length : 'a t -> int

(** Close the channel: producers may no longer push; the consumer sees
    [None] after the backlog drains. *)
val close : 'a t -> unit
