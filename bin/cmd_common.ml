(* Argument converters, shared flags and config helpers used by every
   c4_sim subcommand module (cmd_run / cmd_trace / cmd_chaos /
   cmd_serve / cmd_netbench). One definition per flag so the
   subcommands cannot drift on names, docs or defaults. *)

open Cmdliner

let scale_conv =
  let parse = function
    | "smoke" -> Ok `Smoke
    | "quick" -> Ok `Quick
    | "full" -> Ok `Full
    | s -> Error (`Msg (Printf.sprintf "unknown scale %S (smoke|quick|full)" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with `Smoke -> "smoke" | `Quick -> "quick" | `Full -> "full")
  in
  Arg.conv (parse, print)

let scale_arg =
  Arg.(value & opt scale_conv `Quick & info [ "scale" ] ~docv:"SCALE"
         ~doc:"Simulation scale: smoke, quick or full.")

let csv_arg =
  Arg.(value & opt (some string) None & info [ "o"; "ofile" ] ~docv:"FILE"
         ~doc:"Write results as CSV to $(docv).")

let save_opt csv = function
  | None -> ()
  | Some path ->
    C4_stats.Csv.save csv ~path;
    Printf.printf "wrote %s\n" path

let print_and_save table csv ofile =
  C4_stats.Table.print table;
  save_opt csv ofile

let system_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (C4.Config.of_name s) in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (C4.Config.name s))

let system_arg ?(default = C4.Config.Baseline) ?(doc = "System: baseline|erew|ideal|rlu|mv-rlu|d-crew|comp.") () =
  Arg.(value & opt system_conv default & info [ "system" ] ~docv:"SYS" ~doc)

let write_frac_arg ?(default = 50.0) ?(doc = "Write percentage.") () =
  Arg.(value & opt float default & info [ "write-frac" ] ~docv:"PCT" ~doc)

let theta_arg ?(default = 0.0) ?(doc = "Zipf coefficient.") () =
  Arg.(value & opt float default & info [ "s"; "skew" ] ~docv:"GAMMA" ~doc)

let rate_arg ?(default = 60.0) ?(doc = "Offered load.") () =
  Arg.(value & opt float default & info [ "rate" ] ~docv:"MRPS" ~doc)

let n_requests_arg ?(default = 100_000) ?(doc = "Requests to simulate.") () =
  Arg.(value & opt int default & info [ "reqs-to-sim" ] ~docv:"N" ~doc)

let full_system_arg =
  Arg.(value & flag & info [ "full-system" ]
         ~doc:"Enable the cache-coherence cost layer (Figs. 9-13 methodology).")

(* Shared by the runtime-backed commands (serve / netbench). *)

let workers_arg =
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")

let partitions_arg =
  Arg.(value & opt int 64 & info [ "partitions" ] ~docv:"N" ~doc:"CREW partitions.")

let no_compaction_arg =
  Arg.(value & flag & info [ "no-compaction" ] ~doc:"Disable write compaction.")

let wal_dir_arg =
  Arg.(value & opt (some string) None & info [ "wal-dir" ] ~docv:"DIR"
         ~doc:"Enable durability: write-ahead log directory (created if \
               absent; replayed on start if it holds a previous log).")

let fsync_policy_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (C4_wal.Wal.fsync_policy_of_string s)
  in
  let print ppf p =
    Format.pp_print_string ppf (C4_wal.Wal.fsync_policy_to_string p)
  in
  Arg.conv (parse, print)

let fsync_policy_arg =
  Arg.(value & opt fsync_policy_conv C4_wal.Wal.Window
         & info [ "fsync-policy" ] ~docv:"POLICY"
             ~doc:"WAL fsync policy: always (group-commit every ack), window \
                   (group-commit compaction windows, default), \
                   interval:<ms>, or never (fsync only at shutdown). Only \
                   meaningful with $(b,--wal-dir).")

let wal_config ~wal_dir ~fsync_policy ~n_partitions =
  Option.map
    (fun dir ->
      { (C4_wal.Wal.default_config ~dir ~n_partitions) with
        C4_wal.Wal.fsync = fsync_policy })
    wal_dir

let runtime_config ?registry ?on_decision ?wal n_workers n_partitions compaction =
  {
    C4_runtime.Server.default_config with
    n_workers;
    n_partitions;
    crew =
      (if compaction then C4_crew.Config.queued
       else { C4_crew.Config.queued with C4_crew.Config.compaction = None });
    registry;
    on_decision;
    wal;
  }
