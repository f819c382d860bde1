(* c4-lint: allow test-only-module — tracing is a testing mode: the
   race tests run code against Traced and check the recorded history
   with Race, so tests are this detector's clients by design. *)

module Sync = C4_runtime.Sync

module Recorder = struct
  type t = {
    mutex : Mutex.t;
    mutable events : Event.t list; (* reversed *)
    names : Event.names;
    threads : (int, int) Hashtbl.t; (* raw Domain.self id -> dense tid *)
    mutable next_tid : int;
    mutable next_anon : int;
  }

  let raw_self () = (Domain.self () :> int)

  let create () =
    let t =
      {
        mutex = Mutex.create ();
        events = [];
        names = Event.names ();
        threads = Hashtbl.create 8;
        next_tid = 0;
        next_anon = 0;
      }
    in
    (* The creating domain is thread 0. *)
    Hashtbl.replace t.threads (raw_self ()) 0;
    t.next_tid <- 1;
    t

  let names t = t.names

  let fresh_tid t =
    Sync.with_lock t.mutex (fun () ->
        let tid = t.next_tid in
        t.next_tid <- tid + 1;
        tid)

  let bind_self t tid =
    Sync.with_lock t.mutex (fun () -> Hashtbl.replace t.threads (raw_self ()) tid)

  (* Dense tid of the calling domain. Domains entered via the traced
     [Domain_.spawn] are pre-bound; anything else (defensively)
     registers itself without a fork edge, so its accesses start
     unordered against everyone — exactly what an untracked thread
     deserves. *)
  let tid t =
    Sync.with_lock t.mutex (fun () ->
        match Hashtbl.find_opt t.threads (raw_self ()) with
        | Some tid -> tid
        | None ->
          let tid = t.next_tid in
          t.next_tid <- tid + 1;
          Hashtbl.replace t.threads (raw_self ()) tid;
          tid)

  let record t e = Sync.with_lock t.mutex (fun () -> t.events <- e :: t.events)
  let events t = Sync.with_lock t.mutex (fun () -> List.rev t.events)

  let anon t prefix =
    Sync.with_lock t.mutex (fun () ->
        let n = t.next_anon in
        t.next_anon <- n + 1;
        Printf.sprintf "%s#%d" prefix n)

  let loc t = function
    | Some name -> Event.loc_id t.names name
    | None -> Event.loc_id t.names (anon t "loc")

  let lock t = function
    | Some name -> Event.lock_id t.names name
    | None -> Event.lock_id t.names (anon t "lock")

  let analyze t = Race.analyze ~names:t.names (events t)
end

module type PRIMS = sig
  module Ref : sig
    type 'a t

    val make : ?name:string -> 'a -> 'a t
    val get : 'a t -> 'a
    val set : 'a t -> 'a -> unit
  end

  module Atomic : sig
    type 'a t

    val make : ?name:string -> 'a -> 'a t
    val get : 'a t -> 'a
    val set : 'a t -> 'a -> unit
    val incr : int t -> unit
    val compare_and_set : 'a t -> 'a -> 'a -> bool
  end

  module Mutex : sig
    type t

    val create : ?name:string -> unit -> t
    val with_lock : t -> (unit -> 'a) -> 'a
  end

  module Channel : sig
    type 'a t

    val create : ?name:string -> unit -> 'a t
    val try_push : 'a t -> 'a -> bool
    val try_pop : 'a t -> 'a option
    val drain : 'a t -> 'a list
    val close : 'a t -> unit
    val length : 'a t -> int
  end

  module Domain_ : sig
    type 'a handle

    val spawn : (unit -> 'a) -> 'a handle
    val join : 'a handle -> 'a
  end
end

module Bare : PRIMS = struct
  module Ref = struct
    type 'a t = 'a ref

    let make ?name:_ v = ref v
    let get = ( ! )
    let set r v = r := v
  end

  module Atomic = struct
    type 'a t = 'a Stdlib.Atomic.t

    let make ?name:_ v = Stdlib.Atomic.make v
    let get = Stdlib.Atomic.get
    let set = Stdlib.Atomic.set
    let incr = Stdlib.Atomic.incr
    let compare_and_set = Stdlib.Atomic.compare_and_set
  end

  module Mutex = struct
    type t = Stdlib.Mutex.t

    let create ?name:_ () = Stdlib.Mutex.create ()
    let with_lock = Sync.with_lock
  end

  module Channel = struct
    type 'a t = 'a C4_runtime.Channel.t

    let create ?name:_ () = C4_runtime.Channel.create ()
    let try_push = C4_runtime.Channel.try_push
    let try_pop = C4_runtime.Channel.try_pop
    let drain c = C4_runtime.Channel.drain_matching c ~f:(fun _ -> true)
    let close = C4_runtime.Channel.close
    let length = C4_runtime.Channel.length
  end

  module Domain_ = struct
    type 'a handle = 'a Domain.t

    let spawn = Domain.spawn
    let join = Domain.join
  end
end

module Traced (R : sig
  val recorder : Recorder.t
end) : PRIMS = struct
  let r = R.recorder
  let tid () = Recorder.tid r

  module Ref = struct
    type 'a t = { mutable v : 'a; loc : int }

    let make ?name v = { v; loc = Recorder.loc r name }

    let get t =
      Recorder.record r (Event.Plain { thread = tid (); loc = t.loc; access = Event.Read });
      t.v

    let set t v =
      Recorder.record r (Event.Plain { thread = tid (); loc = t.loc; access = Event.Write });
      t.v <- v
  end

  module Atomic = struct
    (* [serial] makes "perform the op" and "record the event" one
       indivisible step, so the recorded order of atomic ops on a
       location matches their real SC order and the detector never
       builds a happens-before edge the execution did not have. *)
    type 'a t = { v : 'a Stdlib.Atomic.t; loc : int; serial : Stdlib.Mutex.t }

    let make ?name v =
      { v = Stdlib.Atomic.make v; loc = Recorder.loc r name; serial = Stdlib.Mutex.create () }

    let op t access f =
      Sync.with_lock t.serial (fun () ->
          let result = f t.v in
          Recorder.record r (Event.Atomic_op { thread = tid (); loc = t.loc; access });
          result)

    let get t = op t Event.Read Stdlib.Atomic.get
    let set t v = op t Event.Write (fun a -> Stdlib.Atomic.set a v)
    let incr t = op t Event.Write Stdlib.Atomic.incr

    let compare_and_set t expected desired =
      op t Event.Write (fun a -> Stdlib.Atomic.compare_and_set a expected desired)
  end

  module Mutex = struct
    type t = { m : Stdlib.Mutex.t; lock : int }

    let create ?name () = { m = Stdlib.Mutex.create (); lock = Recorder.lock r name }

    let with_lock t f =
      Sync.with_lock t.m (fun () ->
          Recorder.record r (Event.Acquire { thread = tid (); lock = t.lock });
          Fun.protect
            ~finally:(fun () ->
              Recorder.record r (Event.Release { thread = tid (); lock = t.lock }))
            f)
  end

  module Channel = struct
    (* The real channel synchronises every operation through one
       internal mutex; model that as acquire/release of a per-channel
       lock. [serial] keeps the recorded order equal to the real
       serialisation order, as for atomics. *)
    type 'a t = { ch : 'a C4_runtime.Channel.t; lock : int; serial : Stdlib.Mutex.t }

    let create ?name () =
      { ch = C4_runtime.Channel.create (); lock = Recorder.lock r name;
        serial = Stdlib.Mutex.create () }

    let op t f =
      Sync.with_lock t.serial (fun () ->
          Recorder.record r (Event.Acquire { thread = tid (); lock = t.lock });
          Fun.protect
            ~finally:(fun () ->
              Recorder.record r (Event.Release { thread = tid (); lock = t.lock }))
            (fun () -> f t.ch))

    let try_push t v = op t (fun ch -> C4_runtime.Channel.try_push ch v)
    let try_pop t = op t C4_runtime.Channel.try_pop
    let drain t = op t (fun ch -> C4_runtime.Channel.drain_matching ch ~f:(fun _ -> true))
    let close t = op t C4_runtime.Channel.close
    let length t = op t C4_runtime.Channel.length
  end

  module Domain_ = struct
    type 'a handle = { d : 'a Domain.t; child : int }

    let spawn f =
      let parent = tid () in
      let child = Recorder.fresh_tid r in
      Recorder.record r (Event.Fork { parent; child });
      let d =
        Domain.spawn (fun () ->
            Recorder.bind_self r child;
            f ())
      in
      { d; child }

    let join h =
      let v = Domain.join h.d in
      Recorder.record r (Event.Join { parent = tid (); child = h.child });
      v
  end
end
