(* The server under test, run as the shipped [c4_sim serve] in a child
   process, plus what the benchmark reads from outside it: the
   Prometheus /metrics scrape and the kernel's CPU and peak-RSS
   accounting. *)

module Proc = C4_resilience.Proc

type t = { proc : Proc.t; port : int; telemetry_port : int }

let flags ~wal_dir =
  [ "serve"; "-p"; "0"; "--workers"; "2"; "--partitions"; "64"; "--telemetry-port"; "0" ]
  @ match wal_dir with
    | None -> []
    | Some dir -> [ "--wal-dir"; dir; "--fsync-policy"; "window" ]

let scan line fmt = try Some (Scanf.sscanf line fmt Fun.id) with _ -> None

(* Start the server and wait for its telemetry and listening lines. *)
let spawn ~server ~args =
  let proc = Proc.spawn ~prog:server ~args in
  let rec await tport tries =
    if tries = 0 then None
    else
      match Proc.await_line ~timeout:30.0 proc with
      | None -> None
      | Some line -> (
        match scan line "telemetry on http://127.0.0.1:%d" with
        | Some p -> await (Some p) (tries - 1)
        | None -> (
          match (scan line "c4 server listening on 127.0.0.1:%d", tport) with
          | Some port, Some tp -> Some (port, tp)
          | _ -> await tport (tries - 1)))
  in
  match await None 10 with
  | Some (port, telemetry_port) -> { proc; port; telemetry_port }
  | None ->
    Proc.kill proc;
    ignore (Proc.wait proc);
    failwith "server child never printed its telemetry and listening lines"

let pid t = Proc.pid t.proc

(* SIGKILL and reap: nothing a round measures depends on a graceful
   drain. *)
let kill t =
  Proc.kill t.proc;
  ignore (Proc.wait ~timeout:30.0 t.proc)

(* GET /metrics over HTTP/1.0 and keep the plain "name value" lines
   (counters, gauges, summary _sum/_count; quantile lines skipped). *)
let scrape t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.telemetry_port));
      let req = Bytes.of_string "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write fd req 0 (Bytes.length req));
      let buf = Buffer.create 8192 and chunk = Bytes.create 8192 in
      let rec slurp () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n -> Buffer.add_subbytes buf chunk 0 n; slurp ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> slurp ()
      in
      slurp ();
      let m = Hashtbl.create 128 in
      String.split_on_char '\n' (Buffer.contents buf)
      |> List.iter (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ name; v ] when name <> "" && name.[0] <> '#' && not (String.contains name '{') -> (
               match float_of_string_opt v with
               | Some f -> Hashtbl.replace m name f
               | None -> ())
             | _ -> ());
      m)

(* A whole file, read to EOF: /proc files report length 0. *)
let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      Buffer.contents buf)

(* utime + stime of every thread of [pid], in seconds. The kernel
   reports them in USER_HZ ticks, fixed at 100 on Linux. *)
let cpu_s pid =
  let s = read_all (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  (* fields 14 and 15 of stat; [after] starts at field 3 *)
  float_of_string (f.(11)) +. float_of_string (f.(12)) |> fun ticks -> ticks /. 100.0

(* A "Key:   value kB" field of /proc/<pid>/status, in kB. *)
let status_kb pid key =
  read_all (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key ->
           Scanf.sscanf (String.sub line (i + 1) (String.length line - i - 1)) " %d" Option.some
         | _ -> None)
  |> Option.value ~default:0

let peak_rss_mb pid = float_of_int (status_kb pid "VmHWM") /. 1024.0
