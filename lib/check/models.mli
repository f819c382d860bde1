(** Model programs for the {!Sched} explorer, each mirroring one of the
    repo's concurrency protocols at the granularity of its atomic
    operations, with the protocol invariants from the paper asserted in
    every explored interleaving:

    - {!seqlock}: CREW (one writer per partition) and no torn validated
      read, against the real [C4_kvs.Seqlock].
    - {!store_grow}: a reader racing the growth of a partition's
      table never faults and never validates a wrong value for a key
      that stays put, against the real [C4_kvs.Seqlock].
    - {!ewt}: exclusive-writer mapping stability while writes are
      outstanding, credit conservation across responses and stale
      expiry, against the real [C4_nic.Ewt] pin words.
    - {!flow_control}: window credits conserved, never negative, never
      above the cap, against the real [C4_nic.Flow_control].
    - {!channel}: FIFO delivery, nothing lost across [close], no lost
      wakeup, against the real [C4_runtime.Channel].
    - {!home_wake}: the coalesced self-pipe wake every foreign
      completion takes home to its worker — a pin holder and the WAL
      syncer each push a completion while the origin worker clears
      [wake_pending] and drains its inbox — with no completion lost
      (no worker left in poll with one queued), each run exactly once
      and on its home worker, against the real
      [C4_runtime.Channel].
    - {!promise}: resolve-exactly-once, awaiter always wakes, against
      the real [C4_runtime.Promise].
    - {!crew_core}: the engine-agnostic d-CREW policy core
      ([C4_crew.Core]) itself — an admitter, a releaser, a TTL sweeper
      and a window lifecycle interleaved over one core instance, with
      CREW routing stability, occupancy/credit conservation and
      close-answers-exactly-the-absorbed-writes asserted in every
      interleaving.
    - {!pin_words}: the lock-free pin-word admission of
      [C4_crew.Core] over the real [C4_nic.Ewt] words — two admitters
      claiming one partition with a load and a CAS, a late release
      holding a retired stamp, and a recovery remap that retires an
      incarnation — with at most one writer per partition, no late
      release freeing a newer pin, and no count below its live writes
      asserted in every interleaving.
    - {!compaction}: deferred responses only after the window closes;
      every schedule's recorded history is fed to the
      [C4_consistency.Linearizability] checker.

    Each model has deliberately broken variants whose counterexample
    schedules the tests replay — the seeded-bug proof that the explorer
    actually discriminates. *)

type packed

val name : packed -> string
val explore : ?preemption_bound:int -> ?max_schedules:int -> packed -> Sched.outcome
val replay : packed -> int list -> (unit, Sched.violation) result

type seqlock_broken =
  | No_write_end  (** writer never closes the write section: lost wakeup *)
  | Unlocked_writer  (** data writes outside the version protocol: torn read *)
  | Second_writer  (** concurrent writer: CREW violation, seqlock raises *)

val seqlock : ?broken:seqlock_broken -> unit -> packed

type grow_broken =
  | Split_publish
      (** keys and values published by two writes, even inside the
          write section: a reader loading one of each faults out of
          bounds before its version check can discard the read *)

val store_grow : ?broken:grow_broken -> unit -> packed

type ewt_broken =
  | Raising_response
      (** respond assuming the pin still exists (pre-resilience
          protocol): an expiry sweep racing the response makes it
          raise *)

val ewt : ?broken:ewt_broken -> unit -> packed

type flow_broken = Unmatched_release

val flow_control : ?broken:flow_broken -> unit -> packed

type channel_broken =
  | Pop_ignores_close  (** consumer never observes close: lost wakeup *)

val channel : ?broken:channel_broken -> unit -> packed

type wake_broken =
  | Clear_after_drain
      (** the worker clears [wake_pending] after draining its inbox: a
          push that lands after the drain sees the flag still set,
          writes no byte, and the worker sleeps with it queued *)

val home_wake : ?broken:wake_broken -> unit -> packed

type promise_broken = Two_resolvers

val promise : ?broken:promise_broken -> unit -> packed

type crew_broken =
  | Strict_release
      (** release via [write_done ~strict:true] even though a TTL is
          configured: a sweep racing the release makes it raise *)

val crew_core : ?broken:crew_broken -> unit -> packed

type pin_broken =
  | Unstamped_release
      (** release by partition alone: a response that arrives after a
          recovery decrements the pin a later write installed *)
  | Split_admit
      (** claim a free word with a load and a plain store instead of
          one CAS: two admitters both pin it *)

val pin_words : ?broken:pin_broken -> unit -> packed

type compaction_broken =
  | Early_ack  (** acknowledge at enqueue instead of window close *)

(** Returns the model plus a ref holding the history recorded by the
    most recent execution (e.g. a replayed counterexample schedule),
    ready to hand to the linearizability checker. *)
val compaction :
  ?broken:compaction_broken -> unit -> packed * C4_consistency.History.op list ref
