(* [size] mirrors the queue length, written under [mutex], so the
   consumer can test for work without taking the lock. *)
type 'a t = {
  mutex : Mutex.t;
  queue : 'a Queue.t;
  size : int Atomic.t;
  mutable closed : bool;
}

let create () =
  {
    mutex = Mutex.create ();
    queue = Queue.create ();
    size = Atomic.make 0;
    closed = false;
  }

let sync_size t = Atomic.set t.size (Queue.length t.queue)

let try_push t v =
  Sync.with_lock t.mutex (fun () ->
      if t.closed then false
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

let length t = Sync.with_lock t.mutex (fun () -> Queue.length t.queue)
let close t = Sync.with_lock t.mutex (fun () -> t.closed <- true)
let is_closed t = Sync.with_lock t.mutex (fun () -> t.closed)
