type t = int Atomic.t

let create () = Atomic.make 0
let version t = Atomic.get t
let write_in_flight t = Atomic.get t land 1 = 1

let write_begin t =
  let v = Atomic.get t in
  if v land 1 = 1 then failwith "Seqlock.write_begin: concurrent writer (CREW violation)";
  (* Single writer per partition by protocol, so a plain increment
     suffices; [compare_and_set] still guards against protocol bugs. *)
  if not (Atomic.compare_and_set t v (v + 1)) then
    failwith "Seqlock.write_begin: lost race (CREW violation)"

let write_end t =
  let v = Atomic.get t in
  if v land 1 = 0 then failwith "Seqlock.write_end: no update in flight";
  Atomic.set t (v + 1)

(* A retry is a failed attempt, not a spin: an attempt that finds a
   write in flight waits it out and counts once, however long it spins. *)
let read_begin t ~retries =
  let v = Atomic.get t in
  if v land 1 = 0 then v
  else begin
    incr retries;
    let v = ref v in
    while !v land 1 = 1 do
      Domain.cpu_relax ();
      v := Atomic.get t
    done;
    !v
  end

let read_valid t v0 ~retries =
  if Int.equal (Atomic.get t) v0 then true
  else begin
    incr retries;
    false
  end

let read t f =
  let retries = ref 0 in
  let rec attempt () =
    let v0 = read_begin t ~retries in
    let result = f () in
    if read_valid t v0 ~retries then result else attempt ()
  in
  let result = attempt () in
  (result, !retries)
