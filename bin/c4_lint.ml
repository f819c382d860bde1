(* c4_lint [--json] DIR...  — run the repo lint over source trees and
   exit non-zero on any violation. Wired to `dune build @lint`. Sources
   under bench/, examples/ and servbench/ are not linted, but count as
   references to library modules (rule test-only-module). *)

let () =
  let json = ref false in
  let dirs = ref [] in
  Arg.parse
    [ ("--json", Arg.Set json, "emit the report as JSON") ]
    (fun d -> dirs := d :: !dirs)
    "c4_lint [--json] DIR...";
  let dirs = if !dirs = [] then [ "lib"; "bin" ] else List.rev !dirs in
  let refs = [ "bench"; "examples"; "servbench" ] in
  let report = C4_check.Lint.lint_dirs ~refs dirs in
  print_string
    (if !json then C4_check.Lint.to_json report else C4_check.Lint.to_text report);
  exit (if report.C4_check.Lint.violations = [] then 0 else 1)
