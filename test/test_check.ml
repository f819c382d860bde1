(* Concurrency-correctness tooling: the lint rules (each seeded in a
   scratch source and asserted rejected, plus negatives for the things
   they must NOT flag) and the DPOR-lite explorer (exhaustive on every
   protocol model, counterexamples from every seeded-bug variant,
   schedules replayable, and the compaction-window bridge into the
   linearizability checker). *)

module Lint = C4_check.Lint
module Sched = C4_check.Sched
module Models = C4_check.Models
module History = C4_consistency.History
module Lin = C4_consistency.Linearizability

(* ---------------- lint: stripping ---------------- *)

let contains ~needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_strip_basics () =
  let src = "let x = 1 (* comment (* nested *) still *) + 2\n" in
  let s = Lint.strip src in
  Alcotest.(check int) "length preserved" (String.length src) (String.length s);
  Alcotest.(check bool) "nested comment fully gone" false
    (contains ~needle:"comment" s || contains ~needle:"still" s);
  Alcotest.(check bool) "code kept" true (String.sub s 0 9 = "let x = 1")

let test_strip_strings_and_chars () =
  let src = {|let s = "Obj.magic inside a string" and c = '"' and t = "a\"b"
let u = {q|Mutex.lock in quoted string|q} and v = 'x'
type 'a t = Obj of 'a|} in
  let s = Lint.strip src in
  Alcotest.(check bool) "string body gone" false (contains ~needle:"Obj.magic" s);
  Alcotest.(check bool) "quoted string body gone" false (contains ~needle:"Mutex.lock" s);
  Alcotest.(check bool) "escaped quote handled" false (contains ~needle:{|a\"b|} s);
  Alcotest.(check bool) "type variable survives" true (contains ~needle:"'a t" s);
  Alcotest.(check bool) "code after char literal survives" true (contains ~needle:"Obj of" s);
  Alcotest.(check int) "newlines preserved"
    (List.length (String.split_on_char '\n' src))
    (List.length (String.split_on_char '\n' s))

let test_strip_string_in_comment () =
  (* A string inside a comment containing a close-comment marker must
     not terminate the comment (OCaml lexes strings inside comments). *)
  let src = {|(* a string: " *) " still comment *) let live = Obj.magic|} in
  let s = Lint.strip src in
  Alcotest.(check bool) "comment closed at the right place" true
    (contains ~needle:"Obj.magic" s);
  Alcotest.(check bool) "comment body gone" false (contains ~needle:"still comment" s)

(* ---------------- lint: rules ---------------- *)

let rules_of path src =
  List.map (fun v -> v.Lint.rule) (Lint.lint_source ~path src)
  |> List.sort_uniq compare

let has_rule rule path src = List.mem rule (rules_of path src)

let test_lint_bare_mutex_lock () =
  Alcotest.(check bool) "Mutex.lock flagged" true
    (has_rule "bare-mutex-lock" "lib/x/m.ml" "let f m = Mutex.lock m\n");
  Alcotest.(check bool) "Stdlib-qualified flagged" true
    (has_rule "bare-mutex-lock" "lib/x/m.ml" "let f m = Stdlib.Mutex.unlock m\n");
  Alcotest.(check bool) "allowed in runtime/sync.ml" false
    (has_rule "bare-mutex-lock" "lib/runtime/sync.ml" "let f m = Mutex.lock m\n");
  Alcotest.(check bool) "with_lock is fine" false
    (has_rule "bare-mutex-lock" "lib/x/m.ml" "let f m g = Sync.with_lock m g\n");
  Alcotest.(check bool) "in a string is fine" false
    (has_rule "bare-mutex-lock" "lib/x/m.ml" {|let s = "Mutex.lock"|})

let test_lint_no_obj_magic () =
  Alcotest.(check bool) "Obj.magic flagged" true
    (has_rule "no-obj-magic" "lib/x/m.ml" "let c = Obj.magic x\n");
  Alcotest.(check bool) "comment mention is fine" false
    (has_rule "no-obj-magic" "lib/x/m.ml" "(* avoid Obj.magic here *) let c = 1\n")

let test_lint_no_stdout_print () =
  Alcotest.(check bool) "print_endline in lib flagged" true
    (has_rule "no-stdout-print" "lib/x/m.ml" {|let () = print_endline "hi"|});
  Alcotest.(check bool) "Printf.printf in lib flagged" true
    (has_rule "no-stdout-print" "lib/x/m.ml" {|let () = Printf.printf "%d" 1|});
  Alcotest.(check bool) "bin is exempt" false
    (has_rule "no-stdout-print" "bin/m.ml" {|let () = print_endline "hi"|});
  Alcotest.(check bool) "pp_print_string is fine" false
    (has_rule "no-stdout-print" "lib/x/m.ml" "let pp ppf = Format.pp_print_string ppf s\n");
  Alcotest.(check bool) "Printf.sprintf is fine" false
    (has_rule "no-stdout-print" "lib/x/m.ml" {|let s = Printf.sprintf "%d" 1|})

let test_lint_no_toplevel_lazy () =
  Alcotest.(check bool) "lazy in lib flagged" true
    (has_rule "no-toplevel-lazy" "lib/x/m.ml" "let t = lazy (Array.make 4 0)\n");
  Alcotest.(check bool) "Lazy.force in lib flagged" true
    (has_rule "no-toplevel-lazy" "lib/x/m.ml" "let f () = Lazy.force t\n");
  Alcotest.(check bool) "bin is exempt" false
    (has_rule "no-toplevel-lazy" "bin/m.ml" "let t = lazy 1\n");
  Alcotest.(check bool) "comment mention is fine" false
    (has_rule "no-toplevel-lazy" "lib/x/m.ml" "(* not lazy *) let t = 1\n");
  Alcotest.(check bool) "identifier containing lazy is fine" false
    (has_rule "no-toplevel-lazy" "lib/x/m.ml" "let lazy_ok = 1 let x = is_lazy\n");
  Alcotest.(check bool) "pragma opts out" false
    (has_rule "no-toplevel-lazy" "lib/x/m.ml"
       "(* c4-lint: allow no-toplevel-lazy *)\nlet t = lazy 1\n")

let test_lint_poly_compare_mutable () =
  let bad =
    "type t = { mutable x : int }\nlet eq (a : t) (b : t) = a = b\n"
  in
  Alcotest.(check bool) "structural = on mutable record flagged" true
    (has_rule "poly-compare-mutable" "lib/x/m.ml" bad);
  let bad_cmp =
    "type t = { mutable x : int }\nlet cmp (a : t) (b : t) = compare a b\n"
  in
  Alcotest.(check bool) "bare compare flagged" true
    (has_rule "poly-compare-mutable" "lib/x/m.ml" bad_cmp);
  let field_ok =
    "type t = { mutable x : int }\nlet eq (a : t) n = a.x = n\n"
  in
  Alcotest.(check bool) "field comparison is fine" false
    (has_rule "poly-compare-mutable" "lib/x/m.ml" field_ok);
  let literal_ok =
    "type t = { mutable lines : int }\nlet make (n : t) = ignore n; { lines = 3 }\n"
  in
  Alcotest.(check bool) "record literal is fine" false
    (has_rule "poly-compare-mutable" "lib/x/m.ml" literal_ok);
  let defhead_ok =
    "type t = { mutable x : int }\nlet set (w : t) = w.x <- 1\nlet go t w = ignore (t, w)\n"
  in
  Alcotest.(check bool) "function definition head is fine" false
    (has_rule "poly-compare-mutable" "lib/x/m.ml" defhead_ok);
  let immutable_ok = "type t = { x : int }\nlet eq (a : t) (b : t) = a = b\n" in
  Alcotest.(check bool) "immutable record is fine" false
    (has_rule "poly-compare-mutable" "lib/x/m.ml" immutable_ok)

let test_lint_pragma () =
  let src = "(* c4-lint: allow no-obj-magic *)\nlet c = Obj.magic x\n" in
  Alcotest.(check bool) "pragma exempts its rule" false
    (has_rule "no-obj-magic" "lib/x/m.ml" src);
  Alcotest.(check bool) "other rules still apply" true
    (has_rule "bare-mutex-lock" "lib/x/m.ml" (src ^ "let f m = Mutex.lock m\n"));
  Alcotest.(check (list string)) "pragma parsing" [ "no-obj-magic"; "no-stdout-print" ]
    (List.sort compare
       (Lint.pragmas "(* c4-lint: allow no-obj-magic no-stdout-print *)"))

let with_temp_tree f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "c4lint-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists root then rm root;
  Sys.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> rm root) (fun () -> f root)

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let test_lint_dirs_and_mli_required () =
  with_temp_tree (fun root ->
      let lib = Filename.concat root "lib" in
      Sys.mkdir lib 0o755;
      write_file (Filename.concat lib "good.ml") "let x = 1\n";
      write_file (Filename.concat lib "good.mli") "val x : int\n";
      write_file (Filename.concat lib "bad.ml") "let y = Obj.magic 1\n";
      let report = Lint.lint_dirs [ root ] in
      Alcotest.(check int) "files scanned" 3 report.Lint.files_scanned;
      let rules = List.map (fun v -> v.Lint.rule) report.Lint.violations in
      Alcotest.(check bool) "missing mli caught" true (List.mem "mli-required" rules);
      Alcotest.(check bool) "obj magic caught" true (List.mem "no-obj-magic" rules);
      Alcotest.(check int) "exactly two violations" 2 (List.length rules);
      (* compact Obs.Json serialisation: no space after the colon *)
      let json = Lint.to_json report in
      Alcotest.(check bool) "json mentions rule" true
        (contains ~needle:{|"rule":"mli-required"|} json);
      let text = Lint.to_text report in
      Alcotest.(check bool) "text mentions file:line" true
        (contains ~needle:"bad.ml:1:" text))

(* A library module that only tests name is flagged, and so is a module
   only such a module names; a pragma, or a name in a reference-only
   tree, keeps a module. Comments, tests and submodule paths ([A.M])
   do not count as naming [M]. *)
let test_lint_test_only_module () =
  with_temp_tree (fun root ->
      let dir path =
        let d = Filename.concat root path in
        if not (Sys.file_exists d) then Sys.mkdir d 0o755;
        d
      in
      let lib = (ignore (dir "lib"); dir "lib/a") in
      let put d name src = write_file (Filename.concat d name) src in
      put lib "dune" "(library\n (name c4_a))\n";
      put lib "used.ml" "let x = Helper_of_used.y\n";
      put lib "helper_of_used.ml" "let y = 1\n";
      put lib "orphan.ml" "let z = Helper_of_orphan.w\n";
      put lib "helper_of_orphan.ml" "let w = 2\n";
      put lib "kept.ml" "(* c4-lint: allow test-only-module: an oracle *)\nlet k = 3\n";
      put lib "via_example.ml" "let e = 4\n";
      put (dir "bin") "main.ml"
        "(* Orphan.z *)\nlet () = print_int (C4_a.Used.x + Other.Orphan.z)\n";
      put (dir "test") "t.ml" "let _ = (C4_a.Orphan.z, Kept.k, Via_example.e)\n";
      put (dir "examples") "ex.ml" "open C4_a\nlet _ = Via_example.e\n";
      let at = Filename.concat root in
      let flagged =
        (Lint.lint_dirs ~refs:[ at "examples" ] [ at "lib"; at "bin"; at "test" ])
          .Lint.violations
        |> List.filter (fun v -> v.Lint.rule = "test-only-module")
        |> List.map (fun v -> Filename.basename v.Lint.file)
        |> List.sort compare
      in
      Alcotest.(check (list string)) "only-test chain flagged"
        [ "helper_of_orphan.ml"; "orphan.ml" ] flagged;
      let flagged =
        (Lint.lint_dirs [ at "lib"; at "bin" ]).Lint.violations
        |> List.filter (fun v -> v.Lint.rule = "test-only-module")
      in
      Alcotest.(check bool) "without the reference tree, example-only is flagged" true
        (List.exists
           (fun v -> Filename.basename v.Lint.file = "via_example.ml")
           flagged))

(* The repo itself: every library module is named outside tests, or
   carries a pragma saying why tests alone reach it. *)
let test_repo_has_no_test_only_modules () =
  (* Under dune the suite runs in test/, next to the copied trees. *)
  let root = if Sys.file_exists "../lib" then ".." else "." in
  let at = Filename.concat root in
  let report =
    Lint.lint_dirs
      ~refs:[ at "bench"; at "examples"; at "servbench" ]
      [ at "lib"; at "bin" ]
  in
  Alcotest.(check bool) "library modules found" true (report.Lint.files_scanned > 100);
  Alcotest.(check (list string)) "test-only library modules" []
    (report.Lint.violations
    |> List.filter (fun v -> v.Lint.rule = "test-only-module")
    |> List.map (fun v -> v.Lint.file))

(* ---------------- explorer: generic machinery ---------------- *)

(* Tiny two-thread model over a plain int: exhaustive = 2 orders. *)
let tiny_model () =
  let open Sched in
  {
    model_name = "tiny";
    init = (fun () -> ref 0);
    threads =
      [
        { name = "t0"; entry = step ~touches:[ "x" ] "add1" (fun st -> incr st; stop) };
        {
          name = "t1";
          entry = step ~touches:[ "x" ] "double" (fun st -> st := !st * 2; stop);
        };
      ];
    invariant = (fun _ -> Ok ());
    final = (fun _ -> Ok ());
  }

let test_explore_tiny_exhaustive () =
  let outcome = Sched.explore (tiny_model ()) in
  Alcotest.(check int) "two interleavings" 2 outcome.Sched.schedules;
  Alcotest.(check bool) "complete" true outcome.Sched.complete;
  Alcotest.(check bool) "no violation" true (outcome.Sched.violation = None)

let test_explore_sleep_sets_prune_independent () =
  (* Two threads touching DIFFERENT locations commute; sleep sets must
     collapse the two orders into one explored schedule. *)
  let open Sched in
  let model =
    {
      model_name = "independent";
      init = (fun () -> (ref 0, ref 0));
      threads =
        [
          {
            name = "t0";
            entry = step ~touches:[ "x" ] "x" (fun (x, _) -> incr x; stop);
          };
          {
            name = "t1";
            entry = step ~touches:[ "y" ] "y" (fun (_, y) -> incr y; stop);
          };
        ];
      invariant = (fun _ -> Ok ());
      final =
        (fun (x, y) -> if !x = 1 && !y = 1 then Ok () else Error "lost update");
    }
  in
  let outcome = Sched.explore model in
  Alcotest.(check int) "independent steps explored once" 1 outcome.Sched.schedules;
  Alcotest.(check bool) "still complete" true outcome.Sched.complete

let test_explore_preemption_bound () =
  (* Two steps per thread so mid-thread switches exist: unbounded
     exploration sees all 6 interleavings of aabb, while bound 0 keeps
     only the two non-preemptive run-to-completion orders. *)
  let open Sched in
  let chain name l1 l2 =
    {
      name;
      entry =
        step ~touches:[ "x" ] l1 (fun st ->
            incr st;
            Continue (step ~touches:[ "x" ] l2 (fun st -> incr st; stop)));
    }
  in
  let model =
    {
      model_name = "two-step";
      init = (fun () -> ref 0);
      threads = [ chain "t0" "a1" "a2"; chain "t1" "b1" "b2" ];
      invariant = (fun _ -> Ok ());
      final = (fun st -> if !st = 4 then Ok () else Error "lost increment");
    }
  in
  let unbounded = Sched.explore model in
  Alcotest.(check int) "all interleavings" 6 unbounded.Sched.schedules;
  Alcotest.(check bool) "unbounded complete" true unbounded.Sched.complete;
  let bounded = Sched.explore ~preemption_bound:0 model in
  Alcotest.(check int) "bound 0 keeps serial orders" 2 bounded.Sched.schedules;
  Alcotest.(check bool) "reported incomplete" false bounded.Sched.complete

let test_explore_max_schedules () =
  let outcome = Models.explore ~max_schedules:1 (Models.seqlock ()) in
  Alcotest.(check int) "capped at one schedule" 1 outcome.Sched.schedules;
  Alcotest.(check bool) "reported incomplete" false outcome.Sched.complete

let test_explore_deadlock_detected () =
  let open Sched in
  let model =
    {
      model_name = "stuck";
      init = (fun () -> ref false);
      threads =
        [
          {
            name = "waiter";
            entry =
              step ~enabled:(fun st -> !st) "wait" (fun _ -> stop);
          };
        ];
      invariant = (fun _ -> Ok ());
      final = (fun _ -> Ok ());
    }
  in
  match (Sched.explore model).Sched.violation with
  | Some v ->
    Alcotest.(check bool) "deadlock named" true (contains ~needle:"deadlock" v.Sched.reason);
    (* replaying the (empty) counterexample schedule reproduces it *)
    (match Sched.replay model v.Sched.schedule with
    | Error v' ->
      Alcotest.(check bool) "replay reproduces deadlock" true
        (contains ~needle:"deadlock" v'.Sched.reason)
    | Ok () -> Alcotest.fail "replay missed the deadlock")
  | None -> Alcotest.fail "expected a deadlock violation"

(* ---------------- explorer: protocol models ---------------- *)

let check_complete name packed =
  let outcome = Models.explore packed in
  (match outcome.Sched.violation with
  | Some v -> Alcotest.failf "%s: unexpected violation: %s" name v.Sched.reason
  | None -> ());
  Alcotest.(check bool) (name ^ " exhausted") true outcome.Sched.complete;
  Alcotest.(check bool) (name ^ " nontrivial") true (outcome.Sched.schedules >= 1)

let test_models_hold () =
  check_complete "seqlock" (Models.seqlock ());
  check_complete "store-grow" (Models.store_grow ());
  check_complete "ewt" (Models.ewt ());
  check_complete "flow" (Models.flow_control ());
  check_complete "channel" (Models.channel ());
  check_complete "home-wake" (Models.home_wake ());
  check_complete "promise" (Models.promise ());
  check_complete "crew-core" (Models.crew_core ());
  check_complete "pin-words" (Models.pin_words ());
  check_complete "compaction" (fst (Models.compaction ()))

let expect_violation ?(substring = "") name packed =
  match (Models.explore packed).Sched.violation with
  | None -> Alcotest.failf "%s: seeded bug not found" name
  | Some v ->
    if substring <> "" && not (contains ~needle:substring v.Sched.reason) then
      Alcotest.failf "%s: wrong counterexample: %s" name v.Sched.reason;
    (* Every counterexample must replay to the same class of failure. *)
    (match Models.replay packed v.Sched.schedule with
    | Ok () -> Alcotest.failf "%s: counterexample did not replay" name
    | Error _ -> ());
    v

let test_seqlock_broken_variants () =
  ignore
    (expect_violation ~substring:"deadlock" "no-write-end"
       (Models.seqlock ~broken:Models.No_write_end ()));
  ignore
    (expect_violation ~substring:"torn" "unlocked-writer"
       (Models.seqlock ~broken:Models.Unlocked_writer ()));
  ignore
    (expect_violation ~substring:"CREW" "second-writer"
       (Models.seqlock ~broken:Models.Second_writer ()))

let test_store_grow_broken_variant () =
  ignore
    (expect_violation ~substring:"out of bounds" "split-publish"
       (Models.store_grow ~broken:Models.Split_publish ()))

let test_ewt_broken_variant () =
  ignore
    (expect_violation ~substring:"unpinned partition" "raising-response"
       (Models.ewt ~broken:Models.Raising_response ()))

let test_flow_broken_variant () =
  ignore
    (expect_violation ~substring:"release" "unmatched-release"
       (Models.flow_control ~broken:Models.Unmatched_release ()))

let test_channel_broken_variant () =
  ignore
    (expect_violation ~substring:"deadlock" "pop-ignores-close"
       (Models.channel ~broken:Models.Pop_ignores_close ()))

(* Clearing the wake flag after the drain loses a completion pushed in
   between: the worker sleeps in poll with it queued. *)
let test_home_wake_broken_variant () =
  ignore
    (expect_violation ~substring:"deadlock" "clear-after-drain"
       (Models.home_wake ~broken:Models.Clear_after_drain ()))

let test_promise_broken_variant () =
  ignore
    (expect_violation ~substring:"fulfil" "two-resolvers"
       (Models.promise ~broken:Models.Two_resolvers ()))

let test_crew_core_broken_variant () =
  (* The policy core's pre-resilience release protocol: a TTL sweep
     racing [write_done ~strict:true] makes the core raise. *)
  ignore
    (expect_violation ~substring:"unpinned partition" "strict-release"
       (Models.crew_core ~broken:Models.Strict_release ()))

let test_pin_words_broken_variants () =
  (* A release by partition alone lets a response that arrives after a
     recovery free the pin a later write installed. *)
  ignore
    (expect_violation ~substring:"freed under" "unstamped-release"
       (Models.pin_words ~broken:Models.Unstamped_release ()));
  (* Load-then-store admission: the second store overwrites the first
     admitter's pin. *)
  ignore
    (expect_violation ~substring:"freed under" "split-admit"
       (Models.pin_words ~broken:Models.Split_admit ()))

let test_compaction_bridge_to_linearizability () =
  (* The tentpole bridge: the early-ack compaction counterexample's
     recorded history, replayed, is judged NOT linearizable by the
     Wing–Gong checker — while the correct model's histories all pass
     (checked inside the model's final). *)
  let packed, hist = Models.compaction ~broken:Models.Early_ack () in
  let v = expect_violation ~substring:"linearizable" "early-ack" packed in
  (match Models.replay packed v.Sched.schedule with
  | Ok () -> Alcotest.fail "replay should fail"
  | Error _ -> ());
  let h = History.of_ops (List.rev !hist) in
  Alcotest.(check bool) "history recorded" true (History.length h >= 2);
  Alcotest.(check bool) "history not linearizable" false (Lin.is_linearizable ~initial:0 h)

let tests =
  [
    Alcotest.test_case "strip: comments" `Quick test_strip_basics;
    Alcotest.test_case "strip: strings and chars" `Quick test_strip_strings_and_chars;
    Alcotest.test_case "strip: string inside comment" `Quick test_strip_string_in_comment;
    Alcotest.test_case "lint: bare-mutex-lock" `Quick test_lint_bare_mutex_lock;
    Alcotest.test_case "lint: no-obj-magic" `Quick test_lint_no_obj_magic;
    Alcotest.test_case "lint: no-stdout-print" `Quick test_lint_no_stdout_print;
    Alcotest.test_case "lint: no-toplevel-lazy" `Quick test_lint_no_toplevel_lazy;
    Alcotest.test_case "lint: poly-compare-mutable" `Quick test_lint_poly_compare_mutable;
    Alcotest.test_case "lint: pragma opt-out" `Quick test_lint_pragma;
    Alcotest.test_case "lint: dirs + mli-required + reports" `Quick
      test_lint_dirs_and_mli_required;
    Alcotest.test_case "lint: test-only-module" `Quick test_lint_test_only_module;
    Alcotest.test_case "lint: no test-only library modules in the repo" `Quick
      test_repo_has_no_test_only_modules;
    Alcotest.test_case "explore: tiny exhaustive" `Quick test_explore_tiny_exhaustive;
    Alcotest.test_case "explore: sleep sets prune" `Quick
      test_explore_sleep_sets_prune_independent;
    Alcotest.test_case "explore: preemption bound" `Quick test_explore_preemption_bound;
    Alcotest.test_case "explore: schedule cap" `Quick test_explore_max_schedules;
    Alcotest.test_case "explore: deadlock + replay" `Quick test_explore_deadlock_detected;
    Alcotest.test_case "models: all protocols hold" `Slow test_models_hold;
    Alcotest.test_case "models: seqlock seeded bugs" `Quick test_seqlock_broken_variants;
    Alcotest.test_case "models: store-grow seeded bug" `Quick
      test_store_grow_broken_variant;
    Alcotest.test_case "models: ewt seeded bug" `Quick test_ewt_broken_variant;
    Alcotest.test_case "models: flow-control seeded bug" `Quick test_flow_broken_variant;
    Alcotest.test_case "models: channel seeded bug" `Quick test_channel_broken_variant;
    Alcotest.test_case "models: promise seeded bug" `Quick test_promise_broken_variant;
    Alcotest.test_case "models: home-wake seeded bug" `Quick test_home_wake_broken_variant;
    Alcotest.test_case "models: crew core seeded bug" `Quick test_crew_core_broken_variant;
    Alcotest.test_case "models: pin-words seeded bugs" `Quick test_pin_words_broken_variants;
    Alcotest.test_case "models: compaction -> linearizability" `Quick
      test_compaction_bridge_to_linearizability;
  ]
