(* The one sanctioned way to take a mutex in this repo. A bare
   [Mutex.lock]/[Mutex.unlock] pair leaks the lock if the critical
   section raises — a raising promise callback or [Queue] op inside a
   worker wedges the whole server. [c4_lint] rejects bare [Mutex.lock]
   outside this module. A handler rather than [Fun.protect]: the same
   guarantee without its two closures, which the request path would pay
   on every section. *)

let with_lock m f =
  Mutex.lock m;
  match f () with
  | r ->
    Mutex.unlock m;
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.unlock m;
    Printexc.raise_with_backtrace e bt
