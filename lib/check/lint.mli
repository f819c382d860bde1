(** Repo-specific static lint over OCaml sources. Token-level — no
    compiler-libs dependency — after stripping comments, strings and
    char literals with line numbers preserved.

    Rules (a file opts out of a rule with a
    [(* c4-lint: allow <rule> *)] comment anywhere in the file):

    - [mli-required]: every [.ml] outside bin/test/examples/bench
      directories has a sibling [.mli].
    - [bare-mutex-lock]: [Mutex.lock] / [Mutex.unlock] appear only in
      [lib/runtime/sync.ml]; everything else goes through the
      exception-safe [Sync.with_lock].
    - [no-obj-magic]: no [Obj.magic] anywhere.
    - [poly-compare-mutable]: no structural [=], [<>] or bare [compare]
      on a variable annotated with a mutable record type declared in the
      same file (heuristic; catches the racy-snapshot-comparison
      pattern).
    - [no-stdout-print]: no [Printf.printf] / [Format.printf] /
      [print_endline]-family calls in [lib/] implementation files —
      libraries must take an [out_channel] or formatter.
    - [no-toplevel-lazy]: no [lazy] / [Lazy.force] in [lib/] — a value
      shared across domains must be built eagerly, because a domain
      that forces a lazy value while another is forcing it raises
      [CamlinternalLazy.Undefined]. *)

type violation = { file : string; line : int; rule : string; message : string }

type report = { violations : violation list; files_scanned : int }

val all_rules : string list

(** Blank comments, strings and char literals to spaces, preserving
    newlines (and hence line numbers). Exposed for tests. *)
val strip : string -> string

(** Rules a source opts out of via [c4-lint: allow] pragmas. *)
val pragmas : string -> string list

(** Lint source text as if it lived at [path] ([path] determines
    directory-based rule applicability; [mli-required] consults the
    filesystem for the sibling [.mli]). *)
val lint_source : path:string -> string -> violation list

val lint_file : string -> violation list

(** Lint every [.ml] / [.mli] under the given directories. *)
val lint_dirs : string list -> report

val to_text : report -> string
val to_json : report -> string
