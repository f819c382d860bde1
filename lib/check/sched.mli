(** DPOR-lite systematic interleaving explorer.

    A {e model program} is a small set of threads, each a chain of
    atomic steps over a shared state, plus an invariant checked after
    {e every} step of {e every} explored interleaving and a final check
    run at the end of each complete schedule. The explorer enumerates
    schedules depth-first by re-executing prefixes from a fresh state
    (stateless, CHESS-style), pruning with sleep sets (two steps are
    independent when their declared [touches] sets are disjoint) and an
    optional preemption bound.

    Any of the following is a counterexample, reported with the exact
    schedule that produced it so it can be replayed: an invariant
    failure, a final-check failure, a step raising an exception (e.g.
    the seqlock's CREW [failwith]), or a deadlock (threads pending but
    none enabled — a lost wakeup). *)

type 'st progress = Continue of 'st step | Done

and 'st step = {
  label : string;
  touches : string list;
      (** Shared objects this step may touch; used for independence. An
          empty list means "touches nothing" (independent of all). *)
  enabled : 'st -> bool;
      (** Guard evaluated without side effects; a disabled step blocks
          its thread until another thread's step re-enables it. *)
  run : 'st -> 'st progress;
}

type 'st thread = { name : string; entry : 'st step }

type 'st model = {
  model_name : string;
  init : unit -> 'st;
  threads : 'st thread list;
  invariant : 'st -> (unit, string) result;
  final : 'st -> (unit, string) result;
}

(** [step label run] with [touches] defaulting to [[]] and [enabled]
    to always-true. *)
val step :
  ?touches:string list ->
  ?enabled:('st -> bool) ->
  string ->
  ('st -> 'st progress) ->
  'st step

(** Alias for [Done], for readable model code. *)
val stop : 'st progress

type violation = {
  schedule : int list;  (** thread indices, in execution order *)
  trace : (int * string) list;  (** (thread, step label) actually run *)
  reason : string;
}

type outcome = {
  schedules : int;  (** complete schedules fully checked *)
  steps_executed : int;
  complete : bool;
      (** true iff the space was exhausted: no violation, no preemption-
          bound pruning, no schedule-cap truncation *)
  violation : violation option;
}

val explore : ?preemption_bound:int -> ?max_schedules:int -> 'st model -> outcome

(** Re-execute one schedule; [Error] reproduces the violation (including
    deadlock, when the schedule ends with pending threads and nothing
    enabled). *)
val replay : 'st model -> int list -> (unit, violation) result
