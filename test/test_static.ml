(* Typed-AST analyzer tests: every seeded-violation fixture (compiled
   to a real .cmt by test/fixtures/dune) must be flagged with the right
   rule, file and line; the lock graph's cycle detector is exercised on
   hand-built fact bases; and the shared JSON parser that loads the
   findings baseline round-trips what the serialiser emits. The
   repo-clean-modulo-baseline regression itself runs as `dune build
   @analyze`, which the root dune attaches to @runtest. *)

module F = C4_check.Tast_facts
module Callgraph = C4_check.Callgraph
module Lockgraph = C4_check.Lockgraph
module Rules = C4_check.Rules
module Staticcheck = C4_check.Staticcheck
module Lint = C4_check.Lint
module Json = C4_obs.Json

let contains ~needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---------------- fixtures ---------------- *)

(* Next to the test binary, not the working directory: `dune runtest`
   runs it from _build/default/test, `dune exec` from the repo root. *)
let fixture_cmts =
  List.map
    (fun name ->
      Filename.concat (Filename.dirname Sys.executable_name) ("fixtures/" ^ name))
    [ "fix_lock_cycle.cmt"; "fix_worker_block.cmt"; "fix_escape.cmt"; "fix_crew_impure.cmt" ]

let fixture_violations =
  lazy
    (let units = Staticcheck.load_units fixture_cmts in
     assert (List.length units = 4);
     Rules.run
       ~is_crew_core:(fun uf -> uf.F.uf_unit = "Fix_crew_impure")
       units)

let find_all ~rule ~file vs =
  List.filter
    (fun (v : Lint.violation) -> v.Lint.rule = rule && v.Lint.file = file)
    vs

let test_fixture_lock_cycle () =
  let vs =
    find_all ~rule:"lock-order" ~file:"fix_lock_cycle.ml"
      (Lazy.force fixture_violations)
  in
  Alcotest.(check int) "one cycle" 1 (List.length vs);
  let v = List.hd vs in
  Alcotest.(check int) "line of first edge (ab's nested with_lock)" 20
    v.Lint.line;
  Alcotest.(check bool) "names both locks" true
    (contains ~needle:"Fix_lock_cycle.lock_a" v.Lint.message
    && contains ~needle:"Fix_lock_cycle.lock_b" v.Lint.message);
  Alcotest.(check bool) "ring closes back on lock_a" true
    (contains
       ~needle:
         "Fix_lock_cycle.lock_a -> Fix_lock_cycle.lock_b -> Fix_lock_cycle.lock_a"
       v.Lint.message);
  (* The lock_b -> lock_a edge is interprocedural: the witness
     acquisition path must go through grab_a. *)
  Alcotest.(check bool) "witness call chain through grab_a" true
    (contains ~needle:"via Fix_lock_cycle.grab_a" v.Lint.message)

let test_fixture_blocking_worker () =
  let vs =
    find_all ~rule:"blocking-in-worker" ~file:"fix_worker_block.ml"
      (Lazy.force fixture_violations)
  in
  Alcotest.(check int) "one finding" 1 (List.length vs);
  let v = List.hd vs in
  Alcotest.(check int) "line of the Unix.sleepf call" 6 v.Lint.line;
  Alcotest.(check bool) "names primitive and entry" true
    (contains ~needle:"Unix.sleepf" v.Lint.message
    && contains ~needle:"Fix_worker_block.worker_loop" v.Lint.message)

let test_fixture_crew_purity () =
  let vs =
    find_all ~rule:"crew-core-purity" ~file:"fix_crew_impure.ml"
      (Lazy.force fixture_violations)
  in
  Alcotest.(check int) "one finding" 1 (List.length vs);
  let v = List.hd vs in
  Alcotest.(check int) "line of the Unix.gettimeofday call" 4 v.Lint.line;
  Alcotest.(check bool) "names the impure callee" true
    (contains ~needle:"Unix.gettimeofday" v.Lint.message)

let test_fixture_mutable_escape () =
  let vs =
    find_all ~rule:"shared-mutable-escape" ~file:"fix_escape.ml"
      (Lazy.force fixture_violations)
  in
  Alcotest.(check int) "field write and captured ref" 2 (List.length vs);
  let lines = List.sort compare (List.map (fun v -> v.Lint.line) vs) in
  Alcotest.(check (list int)) "lines of the two writes" [ 9; 10 ] lines;
  Alcotest.(check bool) "field and ref both named" true
    (List.exists (fun v -> contains ~needle:"field count" v.Lint.message) vs
    && List.exists (fun v -> contains ~needle:"ref total" v.Lint.message) vs);
  (* The locked write and the atomic bump in [run_synchronised] are the
     clean cases: neither may be reported. *)
  Alcotest.(check bool) "locked write and atomic bump not flagged" false
    (List.exists
       (fun v ->
         contains ~needle:"run_synchronised" v.Lint.message
         || contains ~needle:"guarded" v.Lint.message
         || contains ~needle:"hits" v.Lint.message)
       vs)

let test_fixture_no_cross_talk () =
  (* The pure-by-construction fixtures must not trip the purity rule,
     and the lock fixtures must not produce blocking findings. *)
  let vs = Lazy.force fixture_violations in
  Alcotest.(check int) "purity findings only in the crew fixture" 0
    (List.length
       (List.filter
          (fun (v : Lint.violation) ->
            v.Lint.rule = "crew-core-purity" && v.Lint.file <> "fix_crew_impure.ml")
          vs));
  Alcotest.(check int) "no blocking findings in the lock-cycle fixture" 0
    (List.length
       (List.filter
          (fun (v : Lint.violation) ->
            v.Lint.file = "fix_lock_cycle.ml" && v.Lint.rule <> "lock-order")
          vs))

(* ---------------- lockgraph on hand-built facts ---------------- *)

let mk_func ~name ?(line = 1) ?(calls = []) ?(acquires = []) () =
  {
    F.fn_name = name;
    fn_line = line;
    fn_spawn_body = false;
    calls;
    acquires;
    mutations = [];
    spawns = [];
  }

let mk_unit funcs =
  { F.uf_unit = "T"; uf_source = "t.ml"; uf_funcs = funcs; uf_aliases = [] }

let graph_of funcs = Lockgraph.build (Callgraph.build [ mk_unit funcs ])

let acq ?(line = 1) ?under lock = { F.a_lock = lock; a_line = line; a_under = under }

let test_lockgraph_two_lock_cycle () =
  let lg =
    graph_of
      [
        mk_func ~name:"T.f" ~acquires:[ acq "A"; acq ~under:"A" "B" ] ();
        mk_func ~name:"T.g" ~acquires:[ acq "B"; acq ~under:"B" "A" ] ();
      ]
  in
  Alcotest.(check int) "two edges" 2 (List.length (Lockgraph.edges lg));
  match Lockgraph.cycles lg with
  | [ cycle ] ->
    Alcotest.(check (list string)) "canonical A-first cycle" [ "A"; "B" ]
      (List.map (fun e -> e.Lockgraph.e_from) cycle)
  | cs -> Alcotest.failf "expected exactly one cycle, got %d" (List.length cs)

let test_lockgraph_self_edge () =
  let lg = graph_of [ mk_func ~name:"T.f" ~acquires:[ acq "A"; acq ~under:"A" "A" ] () ] in
  match Lockgraph.cycles lg with
  | [ [ e ] ] ->
    Alcotest.(check string) "self edge from A" "A" e.Lockgraph.e_from;
    Alcotest.(check string) "self edge to A" "A" e.Lockgraph.e_to
  | _ -> Alcotest.fail "expected one single-edge cycle"

let test_lockgraph_acyclic () =
  let lg =
    graph_of
      [
        mk_func ~name:"T.f" ~acquires:[ acq "A"; acq ~under:"A" "B" ] ();
        mk_func ~name:"T.g" ~acquires:[ acq "B"; acq ~under:"B" "C" ] ();
      ]
  in
  Alcotest.(check int) "consistent order has no cycles" 0
    (List.length (Lockgraph.cycles lg))

let test_lockgraph_interprocedural_cycle () =
  (* f: A then call g; g acquires B then calls h; h acquires A. Both
     edges are call-mediated, and there are TWO deadlocks here: the
     A -> B -> A ring, and A re-acquired through f -> g -> h while f
     still holds it (self-deadlock on a non-reentrant mutex). *)
  let call ?(line = 1) ?under callee = { F.callee; c_line = line; c_under = under } in
  let lg =
    graph_of
      [
        mk_func ~name:"T.f"
          ~acquires:[ acq "A" ]
          ~calls:[ call ~under:"A" "g" ] ();
        mk_func ~name:"T.g"
          ~acquires:[ acq "B" ]
          ~calls:[ call ~under:"B" "h" ] ();
        mk_func ~name:"T.h" ~acquires:[ acq "A" ] ();
      ]
  in
  let cycles = Lockgraph.cycles lg in
  let node_sets =
    List.sort compare
      (List.map
         (fun c -> List.sort compare (List.map (fun e -> e.Lockgraph.e_from) c))
         cycles)
  in
  Alcotest.(check (list (list string))) "self-cycle on A plus the A/B ring"
    [ [ "A" ]; [ "A"; "B" ] ] node_sets;
  let ring = List.find (fun c -> List.length c = 2) cycles in
  Alcotest.(check bool) "edge B->A witnessed through h" true
    (List.exists
       (fun e -> e.Lockgraph.e_to = "A" && e.Lockgraph.e_via = [ "T.h" ])
       ring)

(* ---------------- Json.of_string ---------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "quote \" backslash \\ newline \n ctrl \001 done");
        ("n", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("nl", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  Alcotest.(check bool) "parse (to_string doc) = doc" true
    (Json.of_string (Json.to_string doc) = doc)

let test_json_whitespace_and_nesting () =
  let j = Json.of_string " { \"a\" : [ 1 , 2.5 , { \"b\" : null } ] } \n" in
  match Option.bind (Json.member "a" j) Json.to_list_opt with
  | Some [ Json.Int 1; Json.Float 2.5; Json.Obj [ ("b", Json.Null) ] ] -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_json_errors () =
  let fails s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "truncated object" true (fails "{\"a\": 1");
  Alcotest.(check bool) "trailing garbage" true (fails "1 2");
  Alcotest.(check bool) "bare word" true (fails "nope");
  Alcotest.(check bool) "unterminated string" true (fails "\"abc")

let test_baseline_load () =
  let path = Filename.temp_file "c4-baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ( "findings",
                  Json.List
                    [
                      Json.Obj
                        [
                          ("rule", Json.Str "blocking-under-lock");
                          ("file", Json.Str "lib/wal/wal.ml");
                          ("message", Json.Str "m1");
                          ("note", Json.Str "reviewed");
                        ];
                      Json.Obj
                        [
                          ("rule", Json.Str "lock-order");
                          ("file", Json.Str "lib/x.ml");
                          ("message", Json.Str "m2");
                        ];
                    ] );
              ]));
      close_out oc;
      Alcotest.(check (list string)) "keys, note optional"
        [ "blocking-under-lock|lib/wal/wal.ml|m1"; "lock-order|lib/x.ml|m2" ]
        (Staticcheck.load_baseline path);
      Alcotest.(check (list string)) "missing file = empty baseline" []
        (Staticcheck.load_baseline (path ^ ".does-not-exist")))

let test_lint_json_shape () =
  (* c4_lint --json now serialises through Obs.Json: a message with a
     quote and a newline must come back intact through the parser. *)
  let report =
    {
      Lint.violations =
        [ { Lint.file = "a.ml"; line = 3; rule = "r"; message = "say \"hi\"\n" } ];
      files_scanned = 1;
    }
  in
  let j = Json.of_string (Lint.to_json report) in
  (match Option.bind (Json.member "violations" j) Json.to_list_opt with
  | Some [ item ] ->
    Alcotest.(check (option string)) "message round-trips"
      (Some "say \"hi\"\n")
      (Option.bind (Json.member "message" item) Json.to_string_opt);
    Alcotest.(check (option int)) "line" (Some 3)
      (Option.bind (Json.member "line" item) Json.to_int_opt)
  | _ -> Alcotest.fail "expected one violation");
  Alcotest.(check (option int)) "files_scanned" (Some 1)
    (Option.bind (Json.member "files_scanned" j) Json.to_int_opt)

let tests =
  [
    Alcotest.test_case "fixture: lock-order cycle" `Quick test_fixture_lock_cycle;
    Alcotest.test_case "fixture: blocking-in-worker" `Quick
      test_fixture_blocking_worker;
    Alcotest.test_case "fixture: crew-core-purity" `Quick test_fixture_crew_purity;
    Alcotest.test_case "fixture: shared-mutable-escape" `Quick
      test_fixture_mutable_escape;
    Alcotest.test_case "fixture: no cross-talk" `Quick test_fixture_no_cross_talk;
    Alcotest.test_case "lockgraph: two-lock cycle" `Quick
      test_lockgraph_two_lock_cycle;
    Alcotest.test_case "lockgraph: self edge" `Quick test_lockgraph_self_edge;
    Alcotest.test_case "lockgraph: acyclic" `Quick test_lockgraph_acyclic;
    Alcotest.test_case "lockgraph: interprocedural cycle" `Quick
      test_lockgraph_interprocedural_cycle;
    Alcotest.test_case "json: roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: whitespace/nesting" `Quick
      test_json_whitespace_and_nesting;
    Alcotest.test_case "json: errors" `Quick test_json_errors;
    Alcotest.test_case "baseline: load" `Quick test_baseline_load;
    Alcotest.test_case "lint: json via Obs.Json" `Quick test_lint_json_shape;
  ]
