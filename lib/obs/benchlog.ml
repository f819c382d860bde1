let git_rev () =
  match Sys.getenv_opt "C4_GIT_REV" with
  | Some r when r <> "" -> r
  | _ -> (
    (* Best-effort: benches run from a checkout in dev and CI; anywhere
       else the record still appends, just unpinned. *)
    match
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      (Unix.close_process_in ic, line)
    with
    | Unix.WEXITED 0, line when line <> "" -> line
    | _ -> "unknown"
    | exception _ -> "unknown")

let timestamp () =
  let now = Unix.gettimeofday () in
  let tm = Unix.gmtime now in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let record ~kind ~config ~results =
  Json.Obj
    [
      ("ts", Json.Str (timestamp ()));
      ("git_rev", Json.Str (git_rev ()));
      ("kind", Json.Str kind);
      ("config", Json.Obj config);
      ("results", Json.Obj results);
    ]

let append ~path value =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string value);
      output_char oc '\n')
