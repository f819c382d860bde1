(** Append-only benchmark trajectory log ([BENCH_net.json]).

    One complete JSON object per line (JSON Lines): append-on-rerun
    needs no parser, a truncated last line cannot corrupt earlier
    runs, and plotting the trajectory is one [jq] away. Every record
    carries the same envelope —

    {v {"ts": "...Z", "git_rev": "...", "kind": "netbench"|"microbench",
        "config": {...}, "results": {...}} v}

    — so re-anchors can diff like-for-like runs (same kind + config
    fingerprint) across commits. *)

(** [$C4_GIT_REV] when set (CI), else [git rev-parse --short HEAD],
    else ["unknown"]. *)
val git_rev : unit -> string

(** UTC, ISO-8601 seconds precision. *)
val timestamp : unit -> string

(** Build one envelope record: stamps {!timestamp} and {!git_rev},
    nests [config] (the run's fingerprint — every knob that affects
    the numbers) and [results]. *)
val record :
  kind:string ->
  config:(string * Json.t) list ->
  results:(string * Json.t) list ->
  Json.t

(** Append one record as one line, creating the file if needed. *)
val append : path:string -> Json.t -> unit
