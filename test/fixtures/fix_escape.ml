(* Seeded shared-mutable-escape: the spawned function writes a mutable
   field and a captured ref with no lock and no Atomic.t. *)

type w = { mutable count : int; mutable guarded : int }

let total = ref 0

let run w () =
  w.count <- w.count + 1;
  incr total

let start w = Domain.spawn (run w)

(* The clean counterparts, which must not be flagged: a field written
   under a local [with_lock], and an [Atomic.t] bumped with no lock. *)

let lock = Mutex.create ()
let hits = Atomic.make 0

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

let run_synchronised w () =
  with_lock lock (fun () -> w.guarded <- w.guarded + 1);
  Atomic.incr hits

let start_synchronised w = Domain.spawn (run_synchronised w)
