type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : 'a Queue.t;
  mutable closed : bool;
}

let create () =
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    closed = false;
  }

let push t v =
  Sync.with_lock t.mutex (fun () ->
      if t.closed then invalid_arg "Channel.push: closed";
      Queue.push v t.queue;
      Condition.signal t.nonempty)

let try_push t v =
  Sync.with_lock t.mutex (fun () ->
      if t.closed then false
      else begin
        Queue.push v t.queue;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  Sync.with_lock t.mutex (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
        else if t.closed then None
        else begin
          Condition.wait t.nonempty t.mutex;
          wait ()
        end
      in
      wait ())

let try_pop t =
  Sync.with_lock t.mutex (fun () ->
      if Queue.is_empty t.queue then None else Some (Queue.pop t.queue))

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
      List.rev !matched)

let length t = Sync.with_lock t.mutex (fun () -> Queue.length t.queue)

let close t =
  Sync.with_lock t.mutex (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)
