(** The event loops behind {!Server}: a fixed pool of loop domains
    multiplexing every connection with poll(2) (see {!Poll}) plus a
    self-pipe wakeup.

    Per connection, the owning loop does nonblocking batched reads into
    a {e per-loop} scratch buffer, feeds the incremental
    {!Wire.Decoder}, and calls [cb.handle] inline with the request and
    its {!slot} — its place in the connection's response order. The
    handler submits the request and returns at once; whichever thread
    later completes it (a runtime worker, the WAL sync domain, a
    replication-ack reader, or the loop itself) hands the response to
    {!respond}. That parks it in the connection's reorder slot and
    wakes the loop; the loop encodes the contiguous prefix of parked
    responses and flushes it with one coalesced write, so responses
    leave in request arrival order however their completions
    interleave. Each response's [on_written] hook fires exactly once,
    when its last byte is handed to the socket (or the peer is gone).

    Wakes are coalesced: each loop has a wake-pending flag that it
    clears at the top of every iteration, and a completion writes the
    self-pipe only when it is the one to set the flag.

    Protocol errors are connection-fatal but owed responses still
    flush; a dead peer's requests still complete (an acknowledged write
    is applied whether or not the ack is deliverable) with their hooks
    fired; {!stop} half-closes every receive side, answers everything
    accepted, and only then tears the loops down.

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
      (** called on the loop domain; must not block. Submit the request
          and arrange for exactly one {!respond} (or {!abort}) on
          [slot] later, from any thread. Raising is connection-fatal. *)
  on_bytes_in : int -> unit;
  on_bytes_out : int -> unit;
  on_protocol_error : string -> unit;
  on_closed : unit -> unit;  (** socket closed, every response retired *)
}

(** Start [loops] loop domains. [on_slow_drop] fires once per
    connection dropped for exceeding [max_pending]. Raises
    [Invalid_argument] unless both counts are positive. *)
val create :
  wire:Wire.t ->
  loops:int ->
  max_pending:int ->
  on_slow_drop:(unit -> unit) ->
  unit ->
  t

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
    response, then join the loop domains. Blocks until done. Idempotent
    (concurrent calls may return before the drain completes; the caller
    serialises, as {!Server.stop} does). *)
val stop : t -> unit
