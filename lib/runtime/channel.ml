(* [size] mirrors the queue length and [closed] the closed flag, both
   written under [mutex], so the consumer can test for work and for
   shutdown without taking the lock. *)
type 'a t = {
  mutex : Mutex.t;
  queue : 'a Queue.t;
  size : int Atomic.t;
  closed : bool Atomic.t;
}

let create () =
  {
    mutex = Mutex.create ();
    queue = Queue.create ();
    size = Atomic.make 0;
    closed = Atomic.make false;
  }

let sync_size t = Atomic.set t.size (Queue.length t.queue)

let try_push t v =
  Sync.with_lock t.mutex (fun () ->
      if Atomic.get t.closed then false
      else begin
        Queue.push v t.queue;
        sync_size t;
        true
      end)

let push t v = if not (try_push t v) then invalid_arg "Channel.push: closed"

let pop_if t ~f =
  Sync.with_lock t.mutex (fun () ->
      match Queue.peek_opt t.queue with
      | Some v when f v ->
        ignore (Queue.pop t.queue);
        sync_size t;
        Some v
      | Some _ | None -> None)

let try_pop t = pop_if t ~f:(fun _ -> true)
let is_empty t = Atomic.get t.size = 0

let drain_matching ?(limit = max_int) t ~f =
  Sync.with_lock t.mutex (fun () ->
      let kept = Queue.create () and matched = ref [] and n = ref 0 in
      Queue.iter
        (fun v ->
          if !n < limit && f v then begin
            incr n;
            matched := v :: !matched
          end
          else Queue.push v kept)
        t.queue;
      Queue.clear t.queue;
      Queue.transfer kept t.queue;
      sync_size t;
      List.rev !matched)

let length t = Atomic.get t.size
let close t = Sync.with_lock t.mutex (fun () -> Atomic.set t.closed true)
let is_closed t = Atomic.get t.closed
