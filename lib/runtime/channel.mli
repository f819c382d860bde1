(** Multi-producer single-consumer queue backing each worker's inbox.
    Nothing here blocks: the consumer polls it once per loop iteration
    and producers wake the worker separately (its self-pipe). Besides
    pop, the consumer can drain every queued element matching a
    predicate — the compaction layer's dependent-write harvest, done
    under the same lock so producers never observe a half-drained
    queue. *)

type 'a t

val create : unit -> 'a t

(** Producer side. Raises [Invalid_argument] once the channel is closed. *)
val push : 'a t -> 'a -> unit

(** Like {!push} but returns [false] instead of raising when the
    channel is closed — the race-free building block for callers that
    must map "closed" to their own error (e.g. the server's [Stopped]). *)
val try_push : 'a t -> 'a -> bool

(** Consumer side: the oldest element, if any. A closed channel still
    yields its backlog. *)
val try_pop : 'a t -> 'a option

(** The oldest element, if there is one and it satisfies [f]. *)
val pop_if : 'a t -> f:('a -> bool) -> 'a option

(** Lock-free emptiness test; may lag a concurrent push or pop. *)
val is_empty : 'a t -> bool

(** Remove and return (in order) every queued element satisfying [f],
    or only the first [limit] of them: later matches keep their place
    in the queue. *)
val drain_matching : ?limit:int -> 'a t -> f:('a -> bool) -> 'a list

(** Lock-free, like {!is_empty}: may lag a concurrent push or pop. *)
val length : 'a t -> int

(** Close the channel: producers may no longer push. *)
val close : 'a t -> unit

(** Lock-free; a [push] that begins after [is_closed] returns [true]
    fails. *)
val is_closed : 'a t -> bool
