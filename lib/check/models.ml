module Seqlock = C4_kvs.Seqlock
module Ewt = C4_nic.Ewt
module Flow_control = C4_nic.Flow_control
module Channel = C4_runtime.Channel
module Promise = C4_runtime.Promise
module History = C4_consistency.History
module Lin = C4_consistency.Linearizability

type packed = Pack : 'st Sched.model -> packed

let name (Pack m) = m.Sched.model_name

let explore ?preemption_bound ?max_schedules (Pack m) =
  Sched.explore ?preemption_bound ?max_schedules m

let replay (Pack m) schedule = Sched.replay m schedule

(* ---------------- Seqlock reader/writer ---------------- *)

type seqlock_broken = No_write_end | Unlocked_writer | Second_writer

type seqlock_state = {
  sl : Seqlock.t;
  mutable a : int;
  mutable b : int;
  (* reader scratch *)
  mutable r_v0 : int;
  mutable r_a : int;
  mutable r_b : int;
  mutable snapshots : (int * int) list;
}

(* The writer mirrors [Store.set]'s protocol: version bump, two data
   writes (the torn-value hazard), version bump. [n] updates end-to-end. *)
let seqlock_writer ?(skip_end = false) ?(skip_lock = false) n =
  let rec update i =
    let write_end =
      Sched.step ~touches:[ "ver" ]
        (Printf.sprintf "write_end/%d" i)
        (fun st ->
          Seqlock.write_end st.sl;
          if i < n then Sched.Continue (update (i + 1)) else Sched.stop)
    in
    let write_b =
      Sched.step ~touches:[ "b" ]
        (Printf.sprintf "write_b/%d" i)
        (fun st ->
          st.b <- st.b + 1;
          if skip_end then Sched.stop else Sched.Continue write_end)
    in
    let write_a =
      Sched.step ~touches:[ "a" ]
        (Printf.sprintf "write_a/%d" i)
        (fun st ->
          st.a <- st.a + 1;
          Sched.Continue write_b)
    in
    if skip_lock then write_a
    else
      Sched.step ~touches:[ "ver" ]
        (Printf.sprintf "write_begin/%d" i)
        (fun st ->
          Seqlock.write_begin st.sl;
          Sched.Continue write_a)
  in
  update 1

(* The reader mirrors [Seqlock.read] decomposed at its atomic accesses:
   version poll, data reads, version validation, retry on mismatch. The
   poll models the spin loop as blocking (enabled once the version is
   even), so exploration stays finite. *)
let seqlock_reader () =
  let rec read_v0 () =
    Sched.step ~touches:[ "ver" ] "read_v0"
      ~enabled:(fun st -> not (Seqlock.write_in_flight st.sl))
      (fun st ->
        st.r_v0 <- Seqlock.version st.sl;
        Sched.Continue
          (Sched.step ~touches:[ "a" ] "read_a" (fun st ->
               st.r_a <- st.a;
               Sched.Continue
                 (Sched.step ~touches:[ "b" ] "read_b" (fun st ->
                      st.r_b <- st.b;
                      Sched.Continue
                        (Sched.step ~touches:[ "ver" ] "read_validate" (fun st ->
                             if Seqlock.version st.sl = st.r_v0 then begin
                               st.snapshots <- (st.r_a, st.r_b) :: st.snapshots;
                               Sched.stop
                             end
                             else Sched.Continue (read_v0 ()))))))))
  in
  read_v0 ()

let seqlock ?broken () =
  let n_writes = 2 in
  let writer =
    match broken with
    | None -> seqlock_writer n_writes
    | Some No_write_end -> seqlock_writer ~skip_end:true 1
    | Some Unlocked_writer -> seqlock_writer ~skip_lock:true ~skip_end:true 1
    | Some Second_writer -> seqlock_writer n_writes
  in
  let threads =
    let base =
      [
        { Sched.name = "writer"; entry = writer };
        { Sched.name = "reader"; entry = seqlock_reader () };
      ]
    in
    if broken = Some Second_writer then
      base @ [ { Sched.name = "writer2"; entry = seqlock_writer 1 } ]
    else base
  in
  let model_name =
    match broken with
    | None -> "seqlock"
    | Some No_write_end -> "seqlock/no-write-end"
    | Some Unlocked_writer -> "seqlock/unlocked-writer"
    | Some Second_writer -> "seqlock/second-writer"
  in
  Pack
    {
      Sched.model_name;
      init =
        (fun () ->
          {
            sl = Seqlock.create ();
            a = 0;
            b = 0;
            r_v0 = 0;
            r_a = 0;
            r_b = 0;
            snapshots = [];
          });
      threads;
      invariant =
        (fun st ->
          (* Writer order: [a] leads [b] by at most one. *)
          if st.a < st.b || st.a > st.b + 1 then
            Error (Printf.sprintf "writer order broken: a=%d b=%d" st.a st.b)
          else (
            match
              List.find_opt (fun (x, y) -> x <> y) st.snapshots
            with
            | Some (x, y) ->
              Error (Printf.sprintf "torn read validated: a=%d b=%d" x y)
            | None -> Ok ()));
      final =
        (fun st ->
          if st.a <> st.b then
            Error (Printf.sprintf "final store torn: a=%d b=%d" st.a st.b)
          else if st.snapshots = [] then Error "reader never completed a snapshot"
          else Ok ());
    }

(* ---------------- Store table grow vs an optimistic reader -------- *)

type grow_broken = Split_publish

(* One partition of [Store]: slot [i] is ([keys.(i)], [vals.(i)]), a free
   slot holds 0 in [vals]. The stable key [grow_key] (value
   [grow_value]) sits at slot [grow_hash land (capacity - 1)]: slot 1 of
   the initial 2-slot table, slot 3 after the writer doubles it. *)
type grow_state = {
  gsl : Seqlock.t;
  mutable keys : int array;
  mutable vals : int array;
  (* reader scratch *)
  mutable g_v0 : int;
  mutable g_keys : int array;
  mutable g_vals : int array;
  mutable g_found : int option;
  mutable faults : int;
  mutable validated : int option list;
}

let grow_key = 5
let grow_value = 42
let grow_hash = 7

(* The writer mirrors [Store.set] inserting a fresh key into a full
   table: the grow builds the doubled table privately, publishes it
   (one step for [Store]'s one-record write; two for the seeded split
   variant), then the insert writes a slot of the new table. *)
let grow_writer ?broken () =
  let step = Sched.step in
  let write_end =
    step ~touches:[ "ver" ] "write_end" (fun st ->
        Seqlock.write_end st.gsl;
        Sched.stop)
  in
  let insert =
    step ~touches:[ "slots" ] "insert" (fun st ->
        st.keys.(1) <- 9;
        st.vals.(1) <- 99;
        Sched.Continue write_end)
  in
  let write_begin next =
    step ~touches:[ "ver" ] "write_begin" (fun st ->
        Seqlock.write_begin st.gsl;
        Sched.Continue next)
  in
  let doubled () =
    let keys = Array.make 4 0 and vals = Array.make 4 0 in
    keys.(grow_hash land 3) <- grow_key;
    vals.(grow_hash land 3) <- grow_value;
    (keys, vals)
  in
  match broken with
  | None ->
    write_begin
      (step ~touches:[ "keys"; "vals" ] "publish" (fun st ->
           let keys, vals = doubled () in
           st.keys <- keys;
           st.vals <- vals;
           Sched.Continue insert))
  | Some Split_publish ->
    write_begin
      (step ~touches:[ "keys" ] "publish_keys" (fun st ->
           let keys, vals = doubled () in
           st.keys <- keys;
           Sched.Continue
             (step ~touches:[ "vals" ] "publish_vals" (fun st ->
                  st.vals <- vals;
                  Sched.Continue insert))))

(* The reader mirrors [Store.get]: version poll, table load(s), a probe
   of its snapshot, version validation. A probe that indexes [vals] out
   of bounds is a fault: inside [Seqlock.read] it would raise before
   validation could discard it. *)
let grow_reader ~split =
  let rec read_v0 () =
    Sched.step ~touches:[ "ver" ] "read_v0"
      ~enabled:(fun st -> not (Seqlock.write_in_flight st.gsl))
      (fun st ->
        st.g_v0 <- Seqlock.version st.gsl;
        Sched.Continue (if split then load_keys () else load_table ()))
  and load_table () =
    Sched.step ~touches:[ "keys"; "vals" ] "load_table" (fun st ->
        st.g_keys <- st.keys;
        st.g_vals <- st.vals;
        Sched.Continue (probe ()))
  and load_keys () =
    Sched.step ~touches:[ "keys" ] "load_keys" (fun st ->
        st.g_keys <- st.keys;
        Sched.Continue
          (Sched.step ~touches:[ "vals" ] "load_vals" (fun st ->
               st.g_vals <- st.vals;
               Sched.Continue (probe ()))))
  and probe () =
    Sched.step ~touches:[ "slots" ] "probe" (fun st ->
        let i = grow_hash land (Array.length st.g_keys - 1) in
        if i >= Array.length st.g_vals then begin
          st.faults <- st.faults + 1;
          Sched.stop
        end
        else begin
          st.g_found <-
            (if st.g_vals.(i) <> 0 && st.g_keys.(i) = grow_key then Some st.g_vals.(i)
             else None);
          Sched.Continue
            (Sched.step ~touches:[ "ver" ] "validate" (fun st ->
                 if Seqlock.version st.gsl = st.g_v0 then begin
                   st.validated <- st.g_found :: st.validated;
                   Sched.stop
                 end
                 else Sched.Continue (read_v0 ())))
        end)
  in
  read_v0 ()

let store_grow ?broken () =
  let model_name =
    match broken with
    | None -> "store-grow"
    | Some Split_publish -> "store-grow/split-publish"
  in
  Pack
    {
      Sched.model_name;
      init =
        (fun () ->
          {
            gsl = Seqlock.create ();
            keys = [| 0; grow_key |];
            vals = [| 0; grow_value |];
            g_v0 = 0;
            g_keys = [||];
            g_vals = [||];
            g_found = None;
            faults = 0;
            validated = [];
          });
      threads =
        [
          { Sched.name = "writer"; entry = grow_writer ?broken () };
          { Sched.name = "reader"; entry = grow_reader ~split:(broken <> None) };
        ];
      invariant =
        (fun st ->
          if st.faults > 0 then
            Error "reader probed a mismatched table: index out of bounds"
          else
            match List.find_opt (fun r -> r <> Some grow_value) st.validated with
            | Some r ->
              Error
                (Printf.sprintf "stable key validated as %s"
                   (match r with None -> "missing" | Some v -> string_of_int v))
            | None -> Ok ());
      final =
        (fun st ->
          if st.validated = [] then Error "reader never validated a read"
          else if Array.length st.keys <> Array.length st.vals then
            Error "published table arrays differ in length"
          else Ok ());
    }

(* ---------------- EWT acquire / note_response / expire_stale -------- *)

type ewt_broken = Raising_response

type ewt_state = {
  ewt : Ewt.t;
  mutable now : float;
  shadow_out : (int, int) Hashtbl.t;
  shadow_thread : (int, int) Hashtbl.t;
  mutable pending_acks : (int * Ewt.stamp) list;
  mutable oks : int;
  mutable acks : int;
  mutable orphans : int;
  mutable stale_cancelled : int;
  mutable nic_done : bool;
}

let shadow_get h p = Option.value ~default:0 (Hashtbl.find_opt h p)

let ewt_ttl = 1.5

(* One NIC dispatch: read the partition's pin word, ride it or pin the
   partition to [preferred] — a single atomic step, the way the serial
   NIC pipeline executes it. Returns the holder and the write's stamp. *)
let ewt_claim ~now ewt ~partition ~preferred =
  let seen = Ewt.word ewt ~partition in
  if Ewt.is_free seen then
    match Ewt.pin ~now ewt ~partition ~holder:preferred ~incarnation:0 with
    | `Ok -> Some (preferred, Ewt.stamp ~holder:preferred ~incarnation:0)
    | `Full | `Moved -> None
  else
    match Ewt.route ~now ewt ~partition ~seen with
    | `Ok -> Some (Ewt.holder seen, Ewt.stamp_of seen)
    | `Counter_saturated | `Moved -> None

let ewt_nic dispatches =
  let rec go = function
    | [] -> assert false
    | (partition, preferred) :: rest ->
      Sched.step ~touches:[ "ewt" ]
        (Printf.sprintf "dispatch p%d" partition)
        (fun st ->
          st.now <- st.now +. 1.0;
          (match ewt_claim ~now:st.now st.ewt ~partition ~preferred with
          | Some (thread, stamp) ->
            if shadow_get st.shadow_out partition = 0 then
              Hashtbl.replace st.shadow_thread partition thread;
            Hashtbl.replace st.shadow_out partition
              (shadow_get st.shadow_out partition + 1);
            st.pending_acks <- st.pending_acks @ [ (partition, stamp) ];
            st.oks <- st.oks + 1
          | None -> ());
          if rest = [] then begin
            st.nic_done <- true;
            Sched.stop
          end
          else Sched.Continue (go rest))
  in
  go dispatches

let ewt_responder ~raising =
  let rec ack () =
    Sched.step ~touches:[ "ewt" ] "respond"
      ~enabled:(fun st -> st.pending_acks <> [] || st.nic_done)
      (fun st ->
        st.now <- st.now +. 1.0;
        match st.pending_acks with
        | [] -> Sched.stop
        | (partition, stamp) :: rest ->
          st.pending_acks <- rest;
          let acked =
            match Ewt.release st.ewt ~partition ~stamp with
            | `Held | `Freed -> true
            | `Stale ->
              (* The pre-resilience protocol assumed the mapping still
                 exists: an expiry sweep racing the response kills it. *)
              if raising then failwith "Ewt.release: release of an unpinned partition";
              false
          in
          if acked then begin
            st.acks <- st.acks + 1;
            let left = shadow_get st.shadow_out partition - 1 in
            if left <= 0 then begin
              Hashtbl.remove st.shadow_out partition;
              Hashtbl.remove st.shadow_thread partition
            end
            else Hashtbl.replace st.shadow_out partition left
          end
          else st.orphans <- st.orphans + 1;
          Sched.Continue (ack ()))
  in
  ack ()

let ewt_expirer () =
  Sched.step ~touches:[ "ewt" ] "expire_stale" (fun st ->
      st.now <- st.now +. 1.0;
      let evicted = Ewt.expire_stale st.ewt ~now:st.now ~ttl:ewt_ttl in
      (* Reconcile the shadow: partitions whose outstanding collapsed to
         zero inside this step were stale-evicted with writes in flight. *)
      let cancelled = ref 0 and reconciled = ref 0 in
      Hashtbl.iter
        (fun p out ->
          if out > 0 && Ewt.outstanding st.ewt ~partition:p = 0 then begin
            cancelled := !cancelled + out;
            incr reconciled
          end)
        (Hashtbl.copy st.shadow_out);
      Hashtbl.iter
        (fun p out ->
          if out > 0 && Ewt.outstanding st.ewt ~partition:p = 0 then begin
            Hashtbl.remove st.shadow_out p;
            Hashtbl.remove st.shadow_thread p
          end)
        (Hashtbl.copy st.shadow_out);
      st.stale_cancelled <- st.stale_cancelled + !cancelled;
      if !reconciled <> evicted then
        failwith
          (Printf.sprintf "expiry accounting mismatch: evicted %d, reconciled %d"
             evicted !reconciled);
      Sched.stop)

let ewt ?broken () =
  let raising = broken = Some Raising_response in
  let capacity = 8 in
  Pack
    {
      Sched.model_name = (if raising then "ewt/raising-response" else "ewt");
      init =
        (fun () ->
          {
            ewt = Ewt.create ~capacity ~max_outstanding:64 ~n_partitions:16 ();
            now = 0.0;
            shadow_out = Hashtbl.create 8;
            shadow_thread = Hashtbl.create 8;
            pending_acks = [];
            oks = 0;
            acks = 0;
            orphans = 0;
            stale_cancelled = 0;
            nic_done = false;
          });
      threads =
        [
          { Sched.name = "nic"; entry = ewt_nic [ (0, 1); (1, 2); (0, 9) ] };
          { Sched.name = "responder"; entry = ewt_responder ~raising };
          { Sched.name = "expirer"; entry = ewt_expirer () };
        ];
      invariant =
        (fun st ->
          if Ewt.occupancy st.ewt > Ewt.capacity st.ewt then
            Error "occupancy exceeds capacity"
          else begin
            let bad = ref None in
            Hashtbl.iter
              (fun p out ->
                let real = Ewt.outstanding st.ewt ~partition:p in
                if real <> out then
                  bad := Some (Printf.sprintf "partition %d: outstanding %d, shadow %d" p real out)
                else if
                  (* CREW: while writes are outstanding, the partition
                     stays mapped to the thread that first acquired it. *)
                  out > 0
                  && Ewt.lookup st.ewt ~partition:p
                     <> Hashtbl.find_opt st.shadow_thread p
                then bad := Some (Printf.sprintf "partition %d remapped mid-flight" p))
              st.shadow_out;
            match !bad with
            | Some msg -> Error msg
            | None ->
              let outstanding_total =
                Hashtbl.fold (fun _ out acc -> acc + out) st.shadow_out 0
              in
              (* Credit conservation: every accepted write is exactly one
                 of outstanding / acked / cancelled-by-expiry. *)
              if st.oks <> outstanding_total + st.acks + st.stale_cancelled then
                Error
                  (Printf.sprintf "credits leak: oks=%d outstanding=%d acks=%d cancelled=%d"
                     st.oks outstanding_total st.acks st.stale_cancelled)
              else Ok ()
          end);
      final =
        (fun st ->
          if not st.nic_done then Error "nic did not finish"
          else if st.pending_acks <> [] then Error "responses still pending"
          else if st.acks + st.orphans + st.stale_cancelled < st.oks then
            Error "not every accepted write was resolved"
          else Ok ());
    }

(* ---------------- Flow control ---------------- *)

type flow_broken = Unmatched_release

type flow_state = {
  fc : Flow_control.t;
  cap : int;
  mutable sh_admitted : int;
  mutable sh_released : int;
}

let flow_client i =
  Sched.step ~touches:[ "fc" ]
    (Printf.sprintf "admit/%d" i)
    ~enabled:(fun st -> Flow_control.in_flight st.fc < st.cap)
    (fun st ->
      if not (Flow_control.admit st.fc) then failwith "admit failed under guard";
      st.sh_admitted <- st.sh_admitted + 1;
      Sched.Continue
        (Sched.step ~touches:[ "fc" ]
           (Printf.sprintf "release/%d" i)
           (fun st ->
             Flow_control.release st.fc;
             st.sh_released <- st.sh_released + 1;
             Sched.stop)))

let flow_rogue () =
  Sched.step ~touches:[ "fc" ] "rogue_release" (fun st ->
      Flow_control.release st.fc;
      Sched.stop)

let flow_control ?broken () =
  let cap = 1 in
  let threads =
    [
      { Sched.name = "client0"; entry = flow_client 0 };
      { Sched.name = "client1"; entry = flow_client 1 };
    ]
    @
    if broken = Some Unmatched_release then
      [ { Sched.name = "rogue"; entry = flow_rogue () } ]
    else []
  in
  Pack
    {
      Sched.model_name =
        (if broken = Some Unmatched_release then "flow-control/unmatched-release"
         else "flow-control");
      init =
        (fun () ->
          { fc = Flow_control.create ~max_outstanding:cap; cap; sh_admitted = 0; sh_released = 0 });
      threads;
      invariant =
        (fun st ->
          let inflight = Flow_control.in_flight st.fc in
          if inflight < 0 || inflight > st.cap then
            Error (Printf.sprintf "in_flight out of range: %d" inflight)
          else if Flow_control.unmatched_releases st.fc > 0 then
            Error "release without matching admit"
          else if inflight <> st.sh_admitted - st.sh_released then
            Error
              (Printf.sprintf "credits leak: in_flight=%d admitted=%d released=%d"
                 inflight st.sh_admitted st.sh_released)
          else Ok ());
      final =
        (fun st ->
          if Flow_control.in_flight st.fc <> 0 then Error "credits not all returned"
          else Ok ());
    }

(* ---------------- Channel push/pop/close ---------------- *)

type channel_broken = Pop_ignores_close

type chan_state = {
  ch : string Channel.t;
  mutable accepted : string list; (* reversed *)
  mutable popped : string list; (* reversed *)
  mutable chan_closed : bool;
}

let chan_producer name items ~close_after =
  let rec go = function
    | [] ->
      if close_after then
        Sched.step ~touches:[ "ch" ] (name ^ ":close") (fun st ->
            Channel.close st.ch;
            st.chan_closed <- true;
            Sched.stop)
      else Sched.step (name ^ ":done") (fun _ -> Sched.stop)
    | item :: rest ->
      Sched.step ~touches:[ "ch" ]
        (Printf.sprintf "%s:push %s" name item)
        (fun st ->
          if Channel.try_push st.ch item then st.accepted <- item :: st.accepted;
          Sched.Continue (go rest))
  in
  go items

let chan_consumer ~sees_close =
  let rec pop () =
    Sched.step ~touches:[ "ch" ] "pop"
      ~enabled:(fun st ->
        Channel.length st.ch > 0 || (sees_close && st.chan_closed))
      (fun st ->
        match Channel.try_pop st.ch with
        | Some v ->
          st.popped <- v :: st.popped;
          Sched.Continue (pop ())
        | None -> Sched.stop)
  in
  pop ()

let channel ?broken () =
  let sees_close = broken <> Some Pop_ignores_close in
  Pack
    {
      Sched.model_name =
        (if sees_close then "channel" else "channel/pop-ignores-close");
      init =
        (fun () ->
          { ch = Channel.create (); accepted = []; popped = []; chan_closed = false });
      threads =
        [
          { Sched.name = "producer1"; entry = chan_producer "p1" [ "a1"; "a2" ] ~close_after:false };
          { Sched.name = "producer2"; entry = chan_producer "p2" [ "b1" ] ~close_after:true };
          { Sched.name = "consumer"; entry = chan_consumer ~sees_close };
        ];
      invariant =
        (fun st ->
          let accepted = List.rev st.accepted and popped = List.rev st.popped in
          if List.exists (fun v -> not (List.mem v accepted)) popped then
            Error "popped an element never accepted"
          else begin
            (* FIFO per producer. *)
            let sub prefix l = List.filter (fun v -> List.mem v l) prefix in
            let p1_popped = List.filter (fun v -> v.[0] = 'a') popped in
            if p1_popped <> sub [ "a1"; "a2" ] p1_popped then Error "producer1 order inverted"
            else Ok ()
          end);
      final =
        (fun st ->
          let accepted = List.sort compare st.accepted
          and popped = List.sort compare st.popped in
          if accepted <> popped then
            Error
              (Printf.sprintf "lost elements: accepted {%s}, popped {%s}"
                 (String.concat "," accepted) (String.concat "," popped))
          else Ok ());
    }

(* ---------------- Coalesced wake with the home hop ---------------- *)

(* [C4_runtime.Server]'s wakeup, as every foreign completion now takes
   it: a pin holder and the WAL syncer each push a completion onto the
   origin worker's inbox ([send_home]), then wake it — only the caller
   that flips [wake_pending] false -> true writes the self-pipe. The
   worker clears the flag, drains its inbox (running what it finds),
   and blocks in poll(2) until the pipe is readable; it stops once every
   completion has run. A lost wakeup leaves it in poll with a
   completion queued: a deadlock. *)

type wake_broken = Clear_after_drain

type wake_state = {
  home_inbox : int Channel.t;
  mutable wake_pending : bool;
  mutable pipe : int;  (* bytes in the self-pipe *)
  mutable ran : (int * string) list;  (* completion, thread that ran it *)
}

let wake_total = 2

(* [send_home] from a thread other than the origin, then [wake_worker]:
   push, test-and-set the flag, and only then write the pipe. *)
let wake_sender name id =
  Sched.step ~touches:[ "inbox" ] (Printf.sprintf "%s:push %d" name id) (fun st ->
      if not (Channel.try_push st.home_inbox id) then failwith "inbox closed";
      Sched.Continue
        (Sched.step ~touches:[ "flag" ] (name ^ ":test-and-set") (fun st ->
             if st.wake_pending then Sched.stop
             else begin
               st.wake_pending <- true;
               Sched.Continue
                 (Sched.step ~touches:[ "pipe" ] (name ^ ":write pipe") (fun st ->
                      st.pipe <- st.pipe + 1;
                      Sched.stop))
             end)))

let wake_origin ~clear_first =
  let rec clear next =
    Sched.step ~touches:[ "flag" ] "clear flag" (fun st ->
        st.wake_pending <- false;
        Sched.Continue (next ()))
  and drain next =
    Sched.step ~touches:[ "inbox" ] "drain inbox" (fun st ->
        let rec go () =
          match Channel.try_pop st.home_inbox with
          | Some id ->
            st.ran <- (id, "origin") :: st.ran;
            go ()
          | None -> ()
        in
        go ();
        if List.length st.ran >= wake_total then Sched.stop else Sched.Continue (next ()))
  and poll () =
    Sched.step ~touches:[ "pipe" ] "poll"
      ~enabled:(fun st -> st.pipe > 0)
      (fun st ->
        st.pipe <- 0;
        Sched.Continue (iteration ()))
  and iteration () =
    if clear_first then clear (fun () -> drain poll)
    else drain (fun () -> clear poll)
  in
  iteration ()

let home_wake ?broken () =
  let clear_first = broken <> Some Clear_after_drain in
  Pack
    {
      Sched.model_name = (if clear_first then "home-wake" else "home-wake/clear-after-drain");
      init =
        (fun () -> { home_inbox = Channel.create (); wake_pending = false; pipe = 0; ran = [] });
      threads =
        [
          { Sched.name = "origin"; entry = wake_origin ~clear_first };
          { Sched.name = "pin-holder"; entry = wake_sender "holder" 1 };
          { Sched.name = "wal-syncer"; entry = wake_sender "syncer" 2 };
        ];
      invariant =
        (fun st ->
          let ids = List.map fst st.ran in
          if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
            Error "a completion ran twice"
          else if List.exists (fun (_, who) -> who <> "origin") st.ran then
            Error "a completion ran off its home worker"
          else Ok ());
      final =
        (fun st ->
          if List.length st.ran <> wake_total then
            Error (Printf.sprintf "lost completion: %d of %d ran" (List.length st.ran) wake_total)
          else Ok ());
    }

(* ---------------- Promise resolve/await ---------------- *)

type promise_broken = Two_resolvers

type prom_state = { p : int Promise.t; mutable observed : int list }

let prom_resolver name =
  Sched.step ~touches:[ "p" ] (name ^ ":fulfil") (fun st ->
      Promise.fulfil st.p 42;
      Sched.stop)

let prom_awaiter () =
  Sched.step ~touches:[ "p" ] "await"
    ~enabled:(fun st -> Promise.peek st.p <> None)
    (fun st ->
      (match Promise.peek st.p with
      | Some v -> st.observed <- v :: st.observed
      | None -> failwith "await ran while empty");
      Sched.stop)

let promise ?broken () =
  let threads =
    [
      { Sched.name = "resolver"; entry = prom_resolver "r1" };
      { Sched.name = "awaiter"; entry = prom_awaiter () };
    ]
    @
    if broken = Some Two_resolvers then
      [ { Sched.name = "resolver2"; entry = prom_resolver "r2" } ]
    else []
  in
  Pack
    {
      Sched.model_name =
        (if broken = Some Two_resolvers then "promise/two-resolvers" else "promise");
      init = (fun () -> { p = Promise.create (); observed = [] });
      threads;
      invariant =
        (fun st ->
          if List.exists (fun v -> v <> 42) st.observed then
            Error "observed a value never resolved"
          else Ok ());
      final =
        (fun st -> if st.observed = [] then Error "awaiter never woke" else Ok ());
    }

(* ---------------- Crew policy core ---------------- *)

module Crew_core = C4_crew.Core
module Crew_config = C4_crew.Config
module Decision = C4_crew.Decision

type crew_broken = Strict_release

type crew_state = {
  core : Crew_core.t;
  mutable crew_now : float;
  crew_out : (int, int) Hashtbl.t; (* partition -> outstanding (shadow) *)
  crew_owner : (int, int) Hashtbl.t; (* partition -> pinned worker (shadow) *)
  mutable crew_pending : int list; (* partitions awaiting release, in order *)
  mutable crew_admitted : int;
  mutable crew_released : int;
  mutable crew_orphans : int;
  mutable crew_cancelled : int; (* outstanding cancelled by stale sweeps *)
  mutable crew_absorbed : int list; (* write ids absorbed, in order *)
  mutable crew_closed : int list option; (* ids close_window answered *)
  mutable crew_admit_done : bool;
}

let crew_cfg =
  {
    Crew_config.default with
    Crew_config.ewt_capacity = 8;
    pin_fallback = Crew_config.Static;
    compaction = Some Crew_config.default_compaction;
    ewt_ttl = Some { Crew_config.ttl = 1.5; sweep_interval = 1.0 };
  }

(* Admissions run through the real [Core.admit_write]; the shadow tables
   record what the core promised (owner, outstanding) so the invariant
   can hold it to that. *)
let crew_admitter partitions =
  let rec go = function
    | [] -> assert false
    | partition :: rest ->
      Sched.step ~touches:[ "core" ]
        (Printf.sprintf "admit p%d" partition)
        (fun st ->
          st.crew_now <- st.crew_now +. 0.1;
          (match
             Crew_core.admit_write st.core ~partition ~now:st.crew_now ~pick:`Static
           with
          | Crew_core.Admitted { worker; fresh; _ } ->
            if fresh then Hashtbl.replace st.crew_owner partition worker;
            Hashtbl.replace st.crew_out partition
              (shadow_get st.crew_out partition + 1);
            st.crew_pending <- st.crew_pending @ [ partition ];
            st.crew_admitted <- st.crew_admitted + 1
          | Crew_core.No_slot | Crew_core.Rejected _ -> ());
          if rest = [] then begin
            st.crew_admit_done <- true;
            Sched.stop
          end
          else Sched.Continue (go rest))
  in
  go partitions

let crew_releaser ~strict =
  let rec release () =
    Sched.step ~touches:[ "core" ] "write_done"
      ~enabled:(fun st -> st.crew_pending <> [] || st.crew_admit_done)
      (fun st ->
        st.crew_now <- st.crew_now +. 0.1;
        match st.crew_pending with
        | [] -> Sched.stop
        | partition :: rest ->
          st.crew_pending <- rest;
          (* With [strict], this is the pre-resilience protocol: it
             raises if a TTL sweep already reclaimed the pin. *)
          Crew_core.write_done ~strict st.core ~partition;
          if shadow_get st.crew_out partition > 0 then begin
            let left = shadow_get st.crew_out partition - 1 in
            if left = 0 then begin
              Hashtbl.remove st.crew_out partition;
              Hashtbl.remove st.crew_owner partition
            end
            else Hashtbl.replace st.crew_out partition left;
            st.crew_released <- st.crew_released + 1
          end
          else st.crew_orphans <- st.crew_orphans + 1;
          Sched.Continue (release ()))
  in
  release ()

let crew_sweeper () =
  Sched.step ~touches:[ "core" ] "sweep_stale" (fun st ->
      (* Jump past the TTL so every idle pin is reclaimable. *)
      st.crew_now <- st.crew_now +. 10.0;
      let evicted = Crew_core.sweep_stale st.core ~now:st.crew_now in
      List.iter
        (fun p ->
          st.crew_cancelled <- st.crew_cancelled + shadow_get st.crew_out p;
          Hashtbl.remove st.crew_out p;
          Hashtbl.remove st.crew_owner p)
        evicted;
      Sched.stop)

(* A compaction window on worker 0 riding the same core instance the
   sweeps hit: open, absorb three writes, close — the close must answer
   exactly the absorbed ids no matter how sweeps interleave. *)
let crew_windower () =
  let close =
    Sched.step ~touches:[ "core" ] "window_close" (fun st ->
        st.crew_now <- st.crew_now +. 0.1;
        (match Crew_core.close_window st.core ~worker:0 ~now:st.crew_now with
        | Some closed ->
          st.crew_closed <-
            Some
              (List.map
                 (fun p -> p.C4_kvs.Compaction_log.request_id)
                 closed.C4_kvs.Compaction_log.writes)
        | None -> ());
        Sched.stop)
  in
  let rec absorb i =
    Sched.step ~touches:[ "core" ]
      (Printf.sprintf "absorb/%d" i)
      (fun st ->
        st.crew_now <- st.crew_now +. 0.1;
        Crew_core.absorb st.core ~worker:0 ~key:7 ~id:i ~now:st.crew_now;
        st.crew_absorbed <- st.crew_absorbed @ [ i ];
        if i < 2 then Sched.Continue (absorb (i + 1)) else Sched.Continue close)
  in
  Sched.step ~touches:[ "core" ] "window_open" (fun st ->
      st.crew_now <- st.crew_now +. 0.1;
      ignore
        (Crew_core.open_window st.core ~worker:0 ~key:7 ~now:st.crew_now
           ~arrival:st.crew_now ~mean_service:1.0);
      Sched.Continue (absorb 0))

let crew_core ?broken () =
  let strict = broken = Some Strict_release in
  Pack
    {
      Sched.model_name = (if strict then "crew-core/strict-release" else "crew-core");
      init =
        (fun () ->
          {
            core =
              Crew_core.create ~cfg:crew_cfg ~n_workers:2 ~n_partitions:4 ();
            crew_now = 0.0;
            crew_out = Hashtbl.create 8;
            crew_owner = Hashtbl.create 8;
            crew_pending = [];
            crew_admitted = 0;
            crew_released = 0;
            crew_orphans = 0;
            crew_cancelled = 0;
            crew_absorbed = [];
            crew_closed = None;
            crew_admit_done = false;
          });
      threads =
        [
          { Sched.name = "admitter"; entry = crew_admitter [ 0; 1; 0 ] };
          { Sched.name = "releaser"; entry = crew_releaser ~strict };
          { Sched.name = "sweeper"; entry = crew_sweeper () };
          { Sched.name = "windower"; entry = crew_windower () };
        ];
      invariant =
        (fun st ->
          let bad = ref None in
          Hashtbl.iter
            (fun p out ->
              (* CREW: while (un-evicted) writes are outstanding, the
                 routing view must keep pointing at the pinning worker. *)
              if out > 0 then begin
                let owner = Hashtbl.find st.crew_owner p in
                if Crew_core.route_owner st.core ~partition:p <> owner then
                  bad :=
                    Some (Printf.sprintf "partition %d remapped mid-flight" p)
                else if Crew_core.ewt_outstanding st.core ~partition:p <> out
                then
                  bad :=
                    Some
                      (Printf.sprintf "partition %d: core outstanding %d, shadow %d" p
                         (Crew_core.ewt_outstanding st.core ~partition:p)
                         out)
              end)
            st.crew_out;
          match !bad with
          | Some msg -> Error msg
          | None ->
            if Crew_core.ewt_occupancy st.core <> Hashtbl.length st.crew_out then
              Error
                (Printf.sprintf "occupancy %d, shadow has %d pinned partitions"
                   (Crew_core.ewt_occupancy st.core)
                   (Hashtbl.length st.crew_out))
            else begin
              (* Credit conservation: every admitted write is exactly one
                 of outstanding / released / cancelled-by-sweep. *)
              let outstanding =
                Hashtbl.fold (fun _ out acc -> acc + out) st.crew_out 0
              in
              if
                st.crew_admitted
                <> outstanding + st.crew_released + st.crew_cancelled
              then
                Error
                  (Printf.sprintf
                     "credits leak: admitted=%d outstanding=%d released=%d cancelled=%d"
                     st.crew_admitted outstanding st.crew_released st.crew_cancelled)
              else Ok ()
            end);
      final =
        (fun st ->
          if not st.crew_admit_done then Error "admitter did not finish"
          else if st.crew_pending <> [] then Error "releases still pending"
          else
            match st.crew_closed with
            | None -> Error "window never closed"
            | Some ids when ids <> st.crew_absorbed ->
              Error
                (Printf.sprintf "window answered {%s}, absorbed {%s}"
                   (String.concat "," (List.map string_of_int ids))
                   (String.concat "," (List.map string_of_int st.crew_absorbed)))
            | Some _ -> Ok ());
    }

(* ---------------- Pin words: lock-free admission ---------------- *)

type pin_broken = Unstamped_release | Split_admit

type pin_state = {
  words : Ewt.t; (* partition 0 only *)
  incarnation : int array; (* per worker, as [Crew.Core] keeps it *)
  outstanding : (Ewt.stamp, int) Hashtbl.t; (* live writes per stamp (shadow) *)
  mutable writing : int list; (* workers inside an apply, with repeats *)
}

let pin_partition = 0
let pin_live st stamp =
  Ewt.stamp ~holder:(Ewt.stamp_holder stamp)
    ~incarnation:st.incarnation.(Ewt.stamp_holder stamp)
  = stamp

let pin_note st stamp d =
  Hashtbl.replace st.outstanding stamp
    (Option.value ~default:0 (Hashtbl.find_opt st.outstanding stamp) + d)

(* The seeded bug's plain store: whatever the word holds by now is
   overwritten with a fresh pin. *)
let pin_store st ~holder ~incarnation =
  let cur = Ewt.word st.words ~partition:pin_partition in
  if not (Ewt.is_free cur) then
    ignore (Ewt.evict_holder st.words ~holder:(Ewt.holder cur));
  ignore (Ewt.pin st.words ~partition:pin_partition ~holder ~incarnation)

(* One write admitted by [worker] itself ([`Local]), mirroring
   [Crew.Core.admit_write]'s claim loop split at its atomic accesses:
   load the word, then one CAS — pin the free word, ride a live pin, or
   free a pin a retired incarnation left. The write is applied by its
   stamp's worker, which first checks the stamp is still live (the
   runtime's check when it pops a forwarded write) and otherwise admits
   it again; the release carries the stamp. *)
let pin_admitter ~split worker =
  let rec load () =
    Sched.step ~touches:[ "word"; "inc" ]
      (Printf.sprintf "w%d load" worker)
      (fun st ->
        let seen = Ewt.word st.words ~partition:pin_partition in
        Sched.Continue (claim seen st.incarnation.(worker)))
  and claim seen incarnation =
    Sched.step ~touches:[ "word"; "inc" ]
      (Printf.sprintf "w%d claim" worker)
      (fun st ->
        let partition = pin_partition in
        if Ewt.is_free seen then
          if split then begin
            pin_store st ~holder:worker ~incarnation;
            let stamp = Ewt.stamp ~holder:worker ~incarnation in
            pin_note st stamp 1;
            Sched.Continue (apply stamp)
          end
          else
            match Ewt.pin st.words ~partition ~holder:worker ~incarnation with
            | `Ok ->
              let stamp = Ewt.stamp ~holder:worker ~incarnation in
              pin_note st stamp 1;
              Sched.Continue (apply stamp)
            | `Full | `Moved -> Sched.Continue (load ())
        else if not (pin_live st (Ewt.stamp_of seen)) then begin
          ignore (Ewt.release st.words ~partition ~stamp:(Ewt.stamp_of seen));
          Sched.Continue (load ())
        end
        else
          match Ewt.route st.words ~partition ~seen with
          | `Ok ->
            let stamp = Ewt.stamp_of seen in
            pin_note st stamp 1;
            Sched.Continue (apply stamp)
          | `Counter_saturated | `Moved -> Sched.Continue (load ()))
  and apply stamp =
    let writer = Ewt.stamp_holder stamp in
    Sched.step ~touches:[ "inc"; "data" ]
      (Printf.sprintf "w%d apply" worker)
      (fun st ->
        if pin_live st stamp then begin
          st.writing <- writer :: st.writing;
          Sched.Continue (release stamp)
        end
        else Sched.Continue (load ()))
  and release stamp =
    let writer = Ewt.stamp_holder stamp in
    Sched.step ~touches:[ "word"; "data" ]
      (Printf.sprintf "w%d release" worker)
      (fun st ->
        let rec drop = function
          | [] -> []
          | w :: rest -> if w = writer then rest else w :: drop rest
        in
        st.writing <- drop st.writing;
        (match Ewt.release st.words ~partition:pin_partition ~stamp with
        | `Held | `Freed -> pin_note st stamp (-1)
        | `Stale -> ());
        Sched.stop)
  in
  load ()

(* A write of worker 1's first incarnation, applied before the run
   began: its response is late and may arrive after the recovery. *)
let pin_stale_stamp = Ewt.stamp ~holder:1 ~incarnation:0

let pin_late_release ~unstamped =
  Sched.step ~touches:[ "word" ] "late release" (fun st ->
      let stamp =
        if unstamped then Ewt.stamp_of (Ewt.word st.words ~partition:pin_partition)
        else pin_stale_stamp
      in
      (* The shadow follows the late write, whatever the release hit. *)
      (match Ewt.release st.words ~partition:pin_partition ~stamp with
      | (`Held | `Freed) when stamp = pin_stale_stamp -> pin_note st stamp (-1)
      | `Held | `Freed | `Stale -> ());
      Sched.stop)

(* Worker 1 died: retire its incarnation, then free its words — what
   [Crew.Core.reassign] does — and only then does the response of its
   last write arrive. The runtime joins the dead domain first, so
   worker 1 is never inside an apply when the remap runs. *)
let pin_recovery ~unstamped =
  Sched.step ~touches:[ "word"; "inc"; "data" ] "recovery remap"
    ~enabled:(fun st -> not (List.mem 1 st.writing))
    (fun st ->
      st.incarnation.(1) <- st.incarnation.(1) + 1;
      ignore (Ewt.evict_holder st.words ~holder:1);
      Sched.Continue (pin_late_release ~unstamped))

let pin_words ?broken () =
  let unstamped = broken = Some Unstamped_release in
  let split = broken = Some Split_admit in
  Pack
    {
      Sched.model_name =
        (match broken with
        | None -> "pin-words"
        | Some Unstamped_release -> "pin-words/unstamped-release"
        | Some Split_admit -> "pin-words/split-admit");
      init =
        (fun () ->
          let words = Ewt.create ~n_partitions:1 () in
          let st =
            {
              words;
              incarnation = [| 0; 0 |];
              outstanding = Hashtbl.create 8;
              writing = [];
            }
          in
          ignore (Ewt.pin words ~partition:pin_partition ~holder:1 ~incarnation:0);
          pin_note st pin_stale_stamp 1;
          st);
      threads =
        [
          { Sched.name = "w0"; entry = pin_admitter ~split 0 };
          { Sched.name = "w1"; entry = pin_admitter ~split 1 };
          { Sched.name = "recovery"; entry = pin_recovery ~unstamped };
        ];
      invariant =
        (fun st ->
          let w = Ewt.word st.words ~partition:pin_partition in
          let bad = ref None in
          (match List.sort_uniq compare st.writing with
          | _ :: _ :: _ -> bad := Some "two workers write partition 0"
          | _ -> ());
          Hashtbl.iter
            (fun stamp n ->
              if !bad = None && n > 0 && pin_live st stamp then
                if Ewt.is_free w || Ewt.stamp_of w <> stamp then
                  bad :=
                    Some
                      (Printf.sprintf
                         "the pin of worker %d was freed under %d live writes"
                         (Ewt.stamp_holder stamp) n)
                else if Ewt.count w <> n then
                  bad :=
                    Some
                      (Printf.sprintf "count %d under %d live writes: a release would take it negative"
                         (Ewt.count w) n))
            st.outstanding;
          match !bad with Some msg -> Error msg | None -> Ok ());
      final =
        (fun st ->
          if st.writing <> [] then Error "a write never finished"
          else if not (Ewt.is_free (Ewt.word st.words ~partition:pin_partition)) then
            Error "the word is still pinned with every write released"
          else Ok ());
    }

(* ---------------- Compaction window ---------------- *)

type compaction_broken = Early_ack

type comp_state = {
  mutable store : int;
  mutable pending : (int * float) list; (* (value, invoked), submission order *)
  hist : History.op list ref;
  mutable comp_clock : float;
  mutable writers_left : int;
}

let comp_writer ~early_ack i v =
  Sched.step ~touches:[ "window" ]
    (Printf.sprintf "submit/%d" i)
    (fun st ->
      st.comp_clock <- st.comp_clock +. 1.0;
      let invoked = st.comp_clock in
      st.pending <- st.pending @ [ (v, invoked) ];
      st.writers_left <- st.writers_left - 1;
      if early_ack then
        (* The bug C-4's deferred responses exist to avoid: acknowledge
           at enqueue, before the combined update reaches the store. *)
        st.hist :=
          History.set ~client:(Printf.sprintf "w%d" i) ~value:v ~invoked
            ~responded:(invoked +. 0.25)
          :: !(st.hist);
      Sched.stop)

let comp_compactor ~early_ack =
  let rec close () =
    Sched.step ~touches:[ "window"; "store" ] "window_close"
      ~enabled:(fun st -> st.pending <> [] || st.writers_left = 0)
      (fun st ->
        st.comp_clock <- st.comp_clock +. 1.0;
        match st.pending with
        | [] -> Sched.stop
        | ps ->
          (* One combined update: last write wins... *)
          let value, _ = List.nth ps (List.length ps - 1) in
          st.store <- value;
          st.comp_clock <- st.comp_clock +. 1.0;
          (* ...and only now, with the window closed and the store
             updated, do the deferred responses go out. *)
          if not early_ack then
            List.iteri
              (fun j (v, invoked) ->
                st.hist :=
                  History.set ~client:(Printf.sprintf "w%d" j) ~value:v ~invoked
                    ~responded:st.comp_clock
                  :: !(st.hist))
              ps;
          st.pending <- [];
          Sched.Continue (close ()))
  in
  close ()

let comp_reader () =
  Sched.step ~touches:[ "store" ] "read" (fun st ->
      st.comp_clock <- st.comp_clock +. 1.0;
      st.hist :=
        History.get ~client:"r" ~value:st.store ~invoked:st.comp_clock
          ~responded:(st.comp_clock +. 0.5)
        :: !(st.hist);
      Sched.stop)

let compaction ?broken () =
  let early_ack = broken = Some Early_ack in
  let hist = ref [] in
  let model =
    {
      Sched.model_name = (if early_ack then "compaction/early-ack" else "compaction");
      init =
        (fun () ->
          hist := [];
          { store = 0; pending = []; hist; comp_clock = 0.0; writers_left = 2 });
      threads =
        [
          { Sched.name = "writer1"; entry = comp_writer ~early_ack 1 1 };
          { Sched.name = "writer2"; entry = comp_writer ~early_ack 2 2 };
          { Sched.name = "compactor"; entry = comp_compactor ~early_ack };
          { Sched.name = "reader"; entry = comp_reader () };
        ];
      invariant = (fun _ -> Ok ());
      final =
        (fun st ->
          (* Every complete schedule's recorded history goes through the
             linearizability checker — the explorer/checker bridge. *)
          let h = History.of_ops (List.rev !(st.hist)) in
          if Lin.is_linearizable ~initial:0 h then Ok ()
          else
            Error
              (Format.asprintf "history not linearizable:@.%a" History.pp h));
    }
  in
  (Pack model, hist)
