(** The connection side of the runtime's worker loops behind {!Server}:
    loop [i] is the I/O round ({!step}) that runtime worker [i] runs
    after each inbox drain, multiplexing its connections with poll(2)
    (see {!Poll}) alongside the worker's self-pipe. No domain of its
    own: the worker that decodes a request is the one that runs it.

    Per connection, the owning worker does nonblocking batched reads
    into a {e per-loop} scratch buffer, feeds the incremental
    {!Wire.Decoder}, and calls [cb.handle] inline with the request and
    its {!slot} — its place in the connection's response order. The
    handler submits the request; whichever thread completes it (usually
    this worker, before [handle] returns; otherwise the partition's
    writer on another worker, the WAL sync domain, or a replication-ack
    reader) hands the response to {!respond}. That parks it in the
    connection's reorder slot and wakes the owning worker unless it is
    the caller; at the end of the round the worker encodes the
    contiguous prefix of parked responses and flushes it with one
    coalesced write, so responses leave in request arrival order
    however their completions interleave. Each response's [on_written]
    hook fires exactly once, when its last byte is handed to the socket
    (or the peer is gone).

    Protocol errors are connection-fatal but owed responses still
    flush; a dead peer's requests still complete (an acknowledged write
    is applied whether or not the ack is deliverable) with their hooks
    fired; {!stop} half-closes every receive side and returns once
    everything accepted is answered and every connection closed.

    A connection whose pending-response count (accepted but not yet
    written, parked slots included) reaches [max_pending] is dropped as
    a slow client — [on_slow_drop] then [on_protocol_error] fire,
    buffered output is abandoned, already-submitted operations still
    apply. *)

type t

(** One accepted request's place in its connection's response order. *)
type slot

type callbacks = {
  handle : Wire.request -> slot -> unit;
      (** called on the owning worker; must not block. Submit the
          request and arrange for exactly one {!respond} (or {!abort})
          on [slot], from any thread, possibly before returning.
          Raising is connection-fatal. *)
  on_bytes_in : int -> unit;
  on_bytes_out : int -> unit;
  on_protocol_error : string -> unit;
  on_closed : unit -> unit;  (** socket closed, every response retired *)
}

(** [loops] connection sets, one per runtime worker; [wake i] must
    make worker [i] start a new round ([C4_runtime.Server.wake]).
    [on_slow_drop] fires once per connection dropped for exceeding
    [max_pending]. Raises [Invalid_argument] unless both counts are
    positive. *)
val create :
  wire:Wire.t ->
  loops:int ->
  max_pending:int ->
  on_slow_drop:(unit -> unit) ->
  wake:(int -> unit) ->
  unit ->
  t

(** One I/O round of loop [worker], run by that worker (the
    [C4_runtime.Server.io] hook): flush what completed, poll(2) on
    [wake] plus the loop's connections, read and handle what arrived,
    flush again, close finished connections. Returns whether [wake] was
    readable. *)
val step : t -> worker:int -> wake:Unix.file_descr -> bool

(** Take ownership of [fd] (a connected stream socket): set it
    nonblocking and hand it to a loop (round-robin). After {!stop} has
    begun, the fd is closed and [on_closed] fired immediately. *)
val add : t -> fd:Unix.file_descr -> callbacks -> unit

(** Park the response to [slot]; callable from any thread, never
    blocks, never encodes. [on_written] runs exactly once: after the
    response's last byte reaches the socket, or at once if the
    connection is already dead or the slot was aborted. *)
val respond : slot -> on_written:(unit -> unit) -> Wire.response -> unit

(** The response to [slot] cannot be produced (its completion raised):
    retire the slot and kill the connection — buffered output is
    abandoned, the socket shut down. A later {!respond} on the slot only
    runs its hook. *)
val abort : slot -> unit

(** Graceful drain: half-close every connection's receive side, decode
    and answer everything already received, flush every pending
    response, close every connection. Blocks until done; the workers
    must keep running their rounds meanwhile. Idempotent (concurrent
    calls may return before the drain completes; the caller serialises,
    as {!Server.stop} does). *)
val stop : t -> unit
