type 'st progress = Continue of 'st step | Done

and 'st step = {
  label : string;
  touches : string list;
  enabled : 'st -> bool;
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

let step ?(touches = []) ?(enabled = fun _ -> true) label run =
  { label; touches; enabled; run }

let stop = Done

type violation = {
  schedule : int list;
  trace : (int * string) list;
  reason : string;
}

type outcome = {
  schedules : int;
  steps_executed : int;
  complete : bool;
  violation : violation option;
}

(* Mutable per-execution cursors: [None] = thread finished. *)
type 'st cursors = 'st step option array

exception Invariant_failed of string

let check_invariant model st =
  match model.invariant st with
  | Ok () -> ()
  | Error msg -> raise (Invariant_failed msg)

(* Execute [schedule] (a list of thread indices) from a fresh state.
   Returns the final state and cursors, the executed trace, or a
   violation if an invariant failed / a step raised along the way. *)
let execute model schedule =
  let st = model.init () in
  let threads = Array.of_list model.threads in
  let cursors : _ cursors = Array.map (fun t -> Some t.entry) threads in
  let trace = ref [] in
  let executed = ref 0 in
  let fail prefix_rev reason =
    Error { schedule; trace = List.rev prefix_rev; reason }
  in
  let rec go = function
    | [] -> Ok (st, cursors, List.rev !trace, !executed)
    | tid :: rest -> (
      match cursors.(tid) with
      | None -> fail !trace (Printf.sprintf "schedule picks finished thread %d" tid)
      | Some step ->
        if not (step.enabled st) then
          fail !trace (Printf.sprintf "schedule picks disabled step T%d:%s" tid step.label)
        else begin
          trace := (tid, step.label) :: !trace;
          incr executed;
          match
            let progress = step.run st in
            check_invariant model st;
            progress
          with
          | Continue next ->
            cursors.(tid) <- Some next;
            go rest
          | Done ->
            cursors.(tid) <- None;
            go rest
          | exception Invariant_failed msg ->
            fail !trace (Printf.sprintf "invariant violated after T%d:%s: %s" tid step.label msg)
          | exception exn ->
            fail !trace
              (Printf.sprintf "step T%d:%s raised %s" tid step.label (Printexc.to_string exn))
        end)
  in
  go schedule

let independent (a : _ step) (b : _ step) =
  not (List.exists (fun x -> List.mem x b.touches) a.touches)

(* Count preemptions in [schedule]: a switch away from a thread that was
   still runnable (not finished, still enabled) at the switch point.
   [runnable] is supplied by the caller per position. *)

let explore ?(preemption_bound = max_int) ?(max_schedules = 1_000_000) model =
  let n = List.length model.threads in
  let schedules = ref 0 in
  let steps_executed = ref 0 in
  let truncated = ref false in
  let found : violation option ref = ref None in
  let exception Stop_search in
  (* Re-execute the prefix each time we branch (stateless exploration,
     CHESS-style). Models are a handful of steps, so quadratic replay
     is cheap and spares states from having to be copyable. *)
  let rec dfs prefix_rev preemptions sleep =
    if !schedules >= max_schedules then begin
      truncated := true;
      raise Stop_search
    end;
    let schedule = List.rev prefix_rev in
    match execute model schedule with
    | Error v ->
      found := Some v;
      raise Stop_search
    | Ok (st, cursors, trace, executed) ->
      steps_executed := !steps_executed + executed;
      let enabled tid =
        match cursors.(tid) with Some s -> s.enabled st | None -> false
      in
      let enabled_tids = List.filter enabled (List.init n (fun i -> i)) in
      let finished = Array.for_all (fun c -> c = None) cursors in
      if enabled_tids = [] then begin
        if finished then begin
          incr schedules;
          match model.final st with
          | Ok () -> ()
          | Error msg ->
            found := Some { schedule; trace; reason = "final check failed: " ^ msg };
            raise Stop_search
        end
        else begin
          let stuck =
            List.filteri (fun i _ -> cursors.(i) <> None) model.threads
            |> List.map (fun t -> t.name)
          in
          found :=
            Some
              {
                schedule;
                trace;
                reason =
                  "deadlock: no step enabled but threads still pending: "
                  ^ String.concat ", " stuck;
              };
          raise Stop_search
        end
      end
      else begin
        let last = match prefix_rev with t :: _ -> Some t | [] -> None in
        let step_of tid = Option.get cursors.(tid) in
        let explored = ref [] in
        List.iter
          (fun tid ->
            if not (List.mem tid sleep) then begin
              (* A switch away from a still-enabled thread costs one
                 preemption; continuing the same thread (or leaving a
                 finished/disabled one) is free. *)
              let preempts =
                match last with
                | Some l when l <> tid && enabled l -> preemptions + 1
                | _ -> preemptions
              in
              if preempts > preemption_bound then truncated := true
              else begin
                let sleep' =
                  List.filter
                    (fun s -> independent (step_of s) (step_of tid))
                    (sleep @ !explored)
                in
                dfs (tid :: prefix_rev) preempts sleep';
                explored := tid :: !explored
              end
            end)
          enabled_tids
      end
  in
  (try dfs [] 0 [] with Stop_search -> ());
  {
    schedules = !schedules;
    steps_executed = !steps_executed;
    complete = (not !truncated) && !found = None;
    violation = !found;
  }

let replay model schedule =
  match execute model schedule with
  | Error v -> Error v
  | Ok (st, cursors, trace, _) ->
    if Array.exists (fun c -> c <> None) cursors then begin
      let threads = Array.of_list model.threads in
      let enabled_left =
        Array.exists
          (fun c -> match c with Some s -> s.enabled st | None -> false)
          cursors
      in
      let stuck =
        Array.to_list
          (Array.mapi (fun i c -> if c = None then None else Some threads.(i).name) cursors)
        |> List.filter_map Fun.id
      in
      Error
        {
          schedule;
          trace;
          reason =
            (if enabled_left then "replayed schedule is a strict prefix: threads still pending"
             else
               "deadlock: no step enabled but threads still pending: "
               ^ String.concat ", " stuck);
        }
    end
    else (
      match model.final st with
      | Ok () -> Ok ()
      | Error msg -> Error { schedule; trace; reason = "final check failed: " ^ msg })
