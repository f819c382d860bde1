(* The serving benchmark's command line: one run of one workload,
   printing a JSON record line and then the JSON result line, or the
   self-tests. See README.md. *)

module Json = C4_obs.Json

(* ---------------- command line ---------------- *)

let usage =
  "servbench --workload skew-rw|uniform-read|skew-rw-wal --seed N --seconds S --trace 0|1\n\
  \          [--server PATH] [--work-dir DIR] [--smoke]\n\
   servbench selftest [--server PATH] [--work-dir DIR]"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("servbench: " ^ s);
      prerr_endline usage;
      exit 2)
    fmt

let parse args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | "--smoke" :: tl -> Hashtbl.replace tbl "--smoke" "1"; go tl
    | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl k v;
      go tl
    | [] -> ()
    | k :: _ -> die "unexpected argument %S" k
  in
  go args;
  tbl

let default_server = "_build/default/bin/c4_sim.exe"
let default_work_dir = ".servbench-work"

let guard_deadline () =
  (* The whole run must end within 180 s: past 170 s, or when told to
     stop, kill the server child and give up without a result. *)
  let abort why =
    Sys.Signal_handle
      (fun _ ->
        prerr_endline ("servbench: " ^ why ^ ", aborting");
        Option.iter Child.kill !Bench.live;
        exit 3)
  in
  Sys.set_signal Sys.sigalrm (abort "run exceeded 170 s");
  Sys.set_signal Sys.sigterm (abort "terminated");
  Sys.set_signal Sys.sigint (abort "interrupted");
  ignore (Unix.alarm 170)

let config_of tbl =
  let get k = Hashtbl.find_opt tbl k in
  let int k = match get k with
    | Some v -> (match int_of_string_opt v with Some i -> i | None -> die "%s wants an integer" k)
    | None -> die "missing %s" k
  in
  let spec =
    match Option.bind (get "--workload") Workload.find with
    | Some s -> s
    | None -> die "unknown or missing --workload"
  in
  {
    Bench.spec = (if get "--smoke" <> None then Workload.smoke spec else spec);
    seed = int "--seed";
    seconds = float_of_int (int "--seconds");
    trace =
      (match get "--trace" with
      | Some "1" -> true
      | Some "0" -> false
      | _ -> die "--trace wants 0 or 1");
    server = Option.value ~default:default_server (get "--server");
    work_dir = Option.value ~default:default_work_dir (get "--work-dir");
    rounds = 3;
  }

let main () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  guard_deadline ();
  (* An exception must not leave a server child behind. *)
  Fun.protect ~finally:(fun () -> Option.iter Child.kill !Bench.live) @@ fun () ->
  match List.tl (Array.to_list Sys.argv) with
  | "selftest" :: rest ->
    let tbl = parse rest in
    let opt k d = Option.value ~default:d (Hashtbl.find_opt tbl k) in
    exit
      (Selftest.run ~server:(opt "--server" default_server)
         ~work_dir:(opt "--work-dir" default_work_dir))
  | args ->
    let cfg = config_of (parse args) in
    let o = Bench.run cfg in
    print_endline (Json.to_string o.Bench.record);
    print_endline (Json.to_string (Bench.result_json o ~trace:cfg.Bench.trace));
    exit (if o.Bench.correct then 0 else 1)

let () = main ()
