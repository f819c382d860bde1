(* c4-lint: allow bare-mutex-lock — like Registry this sits below
   c4_runtime (Sync.with_lock is unavailable down here) yet is mutated
   from client reader threads, connection threads and worker domains at
   once; [locked] is the same exception-safe pattern. *)

type context = { trace_id : int; span_id : int }

type span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int option;
  sp_name : string;
  sp_t0 : float;
  mutable sp_t1 : float; (* < sp_t0 while the span is open *)
  mutable sp_annots : (string * string) list; (* newest first *)
}

type event = {
  ev_name : string;
  ev_ts : float;
  ev_args : (string * string) list;
}

type t = {
  proc : string;
  lock : Mutex.t;
  mutable sp : span list; (* newest first *)
  mutable ev : event list; (* newest first *)
  (* Thread id -> innermost span entered via [with_current]: the
     ambient hook that lets decision callbacks annotate the request
     span in flight on their thread without threading it through. *)
  current : (int, span) Hashtbl.t;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Ids must be unique across every buffer that might end up stitched
   into one trace — including buffers in other processes, which share
   no state with us. A process-level seed (pid + wall clock at module
   init) mixed through a splitmix-style finaliser makes collisions
   across processes ~2^-62-improbable, while the counter keeps ids
   within this process unique by construction. The seed is computed
   eagerly: worker domains and client threads mint ids concurrently. *)
let id_counter = Atomic.make 1

let id_seed =
  (Unix.getpid () * 1_000_003)
  lxor int_of_float (Float.rem (Unix.gettimeofday () *. 1e6) 1e15)

let fresh_id () =
  let z = Atomic.fetch_and_add id_counter 1 + id_seed in
  let z = (z lxor (z lsr 30)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 27)) * 0x27BB2EE687B0B0FD in
  (z lxor (z lsr 31)) land max_int

let create ?(process = "main") () =
  { proc = process; lock = Mutex.create (); sp = []; ev = []; current = Hashtbl.create 8 }

let process_name t = t.proc

let start ?parent t ~name ~ts =
  let span_id = fresh_id () in
  let trace, par =
    match parent with
    | Some c -> (c.trace_id, Some c.span_id)
    | None -> (fresh_id (), None)
  in
  let s =
    {
      sp_trace = trace;
      sp_id = span_id;
      sp_parent = par;
      sp_name = name;
      sp_t0 = ts;
      sp_t1 = ts -. 1.0;
      sp_annots = [];
    }
  in
  locked t (fun () -> t.sp <- s :: t.sp);
  s

let context s = { trace_id = s.sp_trace; span_id = s.sp_id }
let finish t s ~ts = locked t (fun () -> s.sp_t1 <- Float.max ts s.sp_t0)

let annotate t s ~key ~value =
  locked t (fun () -> s.sp_annots <- (key, value) :: s.sp_annots)

let event ?(args = []) t ~name ~ts =
  locked t (fun () -> t.ev <- { ev_name = name; ev_ts = ts; ev_args = args } :: t.ev)

(* ---------------- ambient current span ---------------- *)

let with_current t s f =
  let tid = Thread.id (Thread.self ()) in
  let prev = locked t (fun () -> Hashtbl.find_opt t.current tid) in
  locked t (fun () -> Hashtbl.replace t.current tid s);
  Fun.protect
    ~finally:(fun () ->
      locked t (fun () ->
          match prev with
          | Some p -> Hashtbl.replace t.current tid p
          | None -> Hashtbl.remove t.current tid))
    f

let annotate_current t ~key ~value =
  let tid = Thread.id (Thread.self ()) in
  locked t (fun () ->
      match Hashtbl.find_opt t.current tid with
      | None -> false
      | Some s ->
        s.sp_annots <- (key, value) :: s.sp_annots;
        true)

(* ---------------- accessors ---------------- *)

let spans t = locked t (fun () -> List.rev t.sp)
let events t = locked t (fun () -> List.rev t.ev)
let find t ~id = locked t (fun () -> List.find_opt (fun s -> s.sp_id = id) t.sp)
let span_id s = s.sp_id
let parent_id s = s.sp_parent
let trace_id s = s.sp_trace
let name s = s.sp_name
let t0 s = s.sp_t0
let finished s = s.sp_t1 >= s.sp_t0
let t1 s = if finished s then Some s.sp_t1 else None
let annotations s = List.rev s.sp_annots

(* ---------------- Chrome trace-event export ---------------- *)

(* One pid per buffer: merging the client's and the server's buffers
   yields one trace with two named process rows, and the span/parent id
   args carry the cross-process stitching Perfetto cannot draw itself. *)
let us ns = ns /. 1e3

let chrome_span pid (s : span) =
  let dur = if finished s then s.sp_t1 -. s.sp_t0 else 0.0 in
  let args =
    [
      ("trace_id", Json.Int s.sp_trace);
      ("span_id", Json.Int s.sp_id);
    ]
    @ (match s.sp_parent with
      | Some p -> [ ("parent_id", Json.Int p) ]
      | None -> [])
    @ List.map (fun (k, v) -> (k, Json.Str v)) (annotations s)
  in
  Json.Obj
    [
      ("name", Json.Str s.sp_name);
      ("cat", Json.Str "span");
      ("ph", Json.Str "X");
      ("ts", Json.Float (us s.sp_t0));
      ("dur", Json.Float (us dur));
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj args);
    ]

let chrome_event pid (e : event) =
  Json.Obj
    [
      ("name", Json.Str e.ev_name);
      ("cat", Json.Str "event");
      ("ph", Json.Str "i");
      ("s", Json.Str "p");
      ("ts", Json.Float (us e.ev_ts));
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.ev_args));
    ]

let to_chrome ?(extra = []) t =
  let bufs = t :: extra in
  let rows =
    List.concat
      (List.mapi
         (fun pid b ->
           Json.Obj
             [
               ("name", Json.Str "process_name");
               ("ph", Json.Str "M");
               ("pid", Json.Int pid);
               ("tid", Json.Int 0);
               ("args", Json.Obj [ ("name", Json.Str b.proc) ]);
             ]
           :: (List.map (chrome_span pid) (spans b)
              @ List.map (chrome_event pid) (events b)))
         bufs)
  in
  Json.to_string
    (Json.Obj
       [ ("displayTimeUnit", Json.Str "ns"); ("traceEvents", Json.List rows) ])
