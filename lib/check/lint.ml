type violation = { file : string; line : int; rule : string; message : string }

type report = { violations : violation list; files_scanned : int }

let all_rules =
  [
    "mli-required";
    "bare-mutex-lock";
    "no-obj-magic";
    "poly-compare-mutable";
    "no-stdout-print";
    "no-toplevel-lazy";
  ]

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Replace comments, string literals and char literals with spaces,
   preserving newlines so line numbers survive. Follows the OCaml lexer
   closely enough for linting: nested [(* *)], strings inside comments
   (where a ["*)"] does not close the comment), backslash escapes,
   [{id|...|id}] quoted strings, and char literals vs. type variables
   (['a'] is a literal, ['a] in [('a, 'b) t] is not). *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 in
  let peek k = if !i + k < n then src.[!i + k] else '\000' in
  (* Consume a string body starting after the opening quote, blanking as
     we go; returns with [i] past the closing quote. *)
  let skip_string () =
    let fin = ref false in
    while (not !fin) && !i < n do
      blank !i;
      (match src.[!i] with
      | '\\' when !i + 1 < n ->
        blank (!i + 1);
        incr i
      | '"' -> fin := true
      | _ -> ());
      incr i
    done
  in
  let skip_quoted_string delim =
    (* inside {delim|...|delim}; find "|delim}" *)
    let needle = "|" ^ delim ^ "}" in
    let len = String.length needle in
    let fin = ref false in
    while (not !fin) && !i < n do
      if !i + len <= n && String.sub src !i len = needle then begin
        for k = 0 to len - 1 do
          blank (!i + k)
        done;
        i := !i + len;
        fin := true
      end
      else begin
        blank !i;
        incr i
      end
    done
  in
  let rec skip_comment depth =
    if depth > 0 && !i < n then
      if peek 0 = '(' && peek 1 = '*' then begin
        blank !i;
        blank (!i + 1);
        i := !i + 2;
        skip_comment (depth + 1)
      end
      else if peek 0 = '*' && peek 1 = ')' then begin
        blank !i;
        blank (!i + 1);
        i := !i + 2;
        skip_comment (depth - 1)
      end
      else if peek 0 = '"' then begin
        blank !i;
        incr i;
        skip_string ();
        skip_comment depth
      end
      else begin
        blank !i;
        incr i;
        skip_comment depth
      end
  in
  while !i < n do
    let c = src.[!i] in
    if c = '(' && peek 1 = '*' then begin
      blank !i;
      blank (!i + 1);
      i := !i + 2;
      skip_comment 1
    end
    else if c = '"' then begin
      blank !i;
      incr i;
      skip_string ()
    end
    else if c = '{' then begin
      (* {|...|} or {id|...|id} quoted string *)
      let j = ref (!i + 1) in
      while !j < n && src.[!j] >= 'a' && src.[!j] <= 'z' do
        incr j
      done;
      if !j < n && src.[!j] = '|' then begin
        let delim = String.sub src (!i + 1) (!j - !i - 1) in
        for k = !i to !j do
          blank k
        done;
        i := !j + 1;
        skip_quoted_string delim
      end
      else incr i
    end
    else if c = '\'' then begin
      (* Char literal iff it closes: 'x' or '\..'. Otherwise a type
         variable or the prime in an identifier like [x']. *)
      let prev_ident = !i > 0 && is_ident_char src.[!i - 1] in
      if prev_ident then incr i
      else if peek 1 = '\\' then begin
        (* escape: '\n' '\\' '\042' '\xFF' — blank to the closing quote *)
        let j = ref (!i + 2) in
        while !j < n && src.[!j] <> '\'' && src.[!j] <> '\n' do
          incr j
        done;
        if !j < n && src.[!j] = '\'' then begin
          for k = !i to !j do
            blank k
          done;
          i := !j + 1
        end
        else incr i
      end
      else if peek 2 = '\'' && peek 1 <> '\'' then begin
        blank !i;
        blank (!i + 1);
        blank (!i + 2);
        i := !i + 3
      end
      else incr i
    end
    else incr i
  done;
  Bytes.to_string out

(* File-level exemptions: [(* c4-lint: allow rule-a rule-b *)] anywhere
   in the original source (typically the first line). *)
let pragmas src =
  let tag = "c4-lint: allow" in
  let acc = ref [] in
  let rec find from =
    match
      if from >= String.length src then None
      else
        let rec search i =
          if i + String.length tag > String.length src then None
          else if String.sub src i (String.length tag) = tag then Some i
          else search (i + 1)
        in
        search from
    with
    | None -> ()
    | Some at ->
      let i = ref (at + String.length tag) in
      let n = String.length src in
      let fin = ref false in
      while not !fin do
        while !i < n && (src.[!i] = ' ' || src.[!i] = '\t') do
          incr i
        done;
        let start = !i in
        while
          !i < n
          && (is_ident_char src.[!i] || src.[!i] = '-')
        do
          incr i
        done;
        if !i > start then acc := String.sub src start (!i - start) :: !acc
        else fin := true
      done;
      find !i
  in
  find 0;
  !acc

(* Needle occurrence with token boundaries. [qualified] needles (leading
   uppercase, e.g. "Mutex.lock") may be preceded by '.', so
   [Stdlib.Mutex.lock] still matches; bare lowercase needles must not
   be, so [String.compare] does not match "compare". *)
let occurrences ~needle ~qualified line =
  let n = String.length line and m = String.length needle in
  let ok_before i =
    i = 0
    || (not (is_ident_char line.[i - 1]))
       && (qualified || line.[i - 1] <> '.')
  in
  let ok_after i = i + m >= n || not (is_ident_char line.[i + m]) in
  let rec go i acc =
    if i + m > n then List.rev acc
    else if String.sub line i m = needle && ok_before i && ok_after i then
      go (i + m) (i :: acc)
    else go (i + 1) acc
  in
  go 0 []

let split_lines s = String.split_on_char '\n' s

let path_components path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")

let has_component names path =
  List.exists (fun c -> List.mem c names) (path_components path)

let mli_exempt_dirs = [ "bin"; "test"; "tests"; "examples"; "bench" ]

(* The one module allowed to take locks directly: it provides the
   exception-safe wrapper everything else must use. *)
let lock_exempt path =
  match List.rev (path_components path) with
  | file :: dir :: _ -> dir = "runtime" && (file = "sync.ml" || file = "sync.mli")
  | _ -> false

let token_rule ~rule ~needles ~message path stripped =
  List.concat
    (List.mapi
       (fun lineno line ->
         List.concat_map
           (fun needle ->
             let qualified = needle.[0] >= 'A' && needle.[0] <= 'Z' in
             List.map
               (fun _ ->
                 {
                   file = path;
                   line = lineno + 1;
                   rule;
                   message = message needle;
                 })
               (occurrences ~needle ~qualified line))
           needles)
       (split_lines stripped))

let bare_mutex_lock path stripped =
  if lock_exempt path then []
  else
    token_rule ~rule:"bare-mutex-lock"
      ~needles:[ "Mutex.lock"; "Mutex.unlock" ]
      ~message:(fun needle ->
        needle
        ^ " outside Runtime.Sync: use Sync.with_lock so exceptions cannot leak a held lock")
      path stripped

let no_obj_magic path stripped =
  token_rule ~rule:"no-obj-magic" ~needles:[ "Obj.magic" ]
    ~message:(fun _ -> "Obj.magic defeats the type system; restructure instead")
    path stripped

let stdout_needles =
  [
    "Printf.printf";
    "Format.printf";
    "print_endline";
    "print_string";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
  ]

let no_stdout_print path stripped =
  if
    (not (has_component [ "lib" ] path))
    || Filename.check_suffix path ".mli"
  then []
  else
    token_rule ~rule:"no-stdout-print" ~needles:stdout_needles
      ~message:(fun needle ->
        needle
        ^ " in library code writes to stdout; take an out_channel or a Format formatter instead")
      path stripped

(* A [lazy] value in a library is shared by every domain that reaches
   it, and OCaml 5 raises [CamlinternalLazy.Undefined] in a domain that
   forces it while another domain is already forcing it — a worker that
   dies of that looks like a deadlock. Build shared values eagerly. *)
let no_toplevel_lazy path stripped =
  if not (has_component [ "lib" ] path) then []
  else
    token_rule ~rule:"no-toplevel-lazy" ~needles:[ "lazy"; "Lazy.force" ]
      ~message:(fun needle ->
        needle
        ^ " in library code: two domains forcing one lazy value race \
           (CamlinternalLazy.Undefined); build the value eagerly")
      path stripped

(* Heuristic: find record types declared [mutable] in this file, then
   variables annotated [(x : t)] with such a type, then flag structural
   [=] / [<>] / [compare] applied to those variables. Physical equality
   [==] and field access [x.f = ...] are not flagged. *)
let poly_compare_mutable path stripped =
  let lines = Array.of_list (split_lines stripped) in
  let text = stripped in
  let n = String.length text in
  let token_at i needle =
    let m = String.length needle in
    i + m <= n
    && String.sub text i m = needle
    && (i = 0 || not (is_ident_char text.[i - 1]))
    && (i + m >= n || not (is_ident_char text.[i + m]))
  in
  (* pass 1: names of record types with a [mutable] field *)
  let mutable_types = ref [] in
  let rec scan_types i =
    if i < n then
      if token_at i "type" then begin
        (* parse: type <params>? <name> = { ... } ; mutable inside braces *)
        let j = ref (i + 4) in
        let skip_ws () =
          while !j < n && (text.[!j] = ' ' || text.[!j] = '\n' || text.[!j] = '\t') do
            incr j
          done
        in
        skip_ws ();
        (* optional type parameters: 'a or ('a, 'b) *)
        if !j < n && text.[!j] = '\'' then begin
          while !j < n && is_ident_char text.[!j] do
            incr j
          done;
          skip_ws ()
        end
        else if !j < n && text.[!j] = '(' then begin
          while !j < n && text.[!j] <> ')' do
            incr j
          done;
          if !j < n then incr j;
          skip_ws ()
        end;
        let name_start = !j in
        while !j < n && is_ident_char text.[!j] do
          incr j
        done;
        let name = String.sub text name_start (!j - name_start) in
        skip_ws ();
        if name <> "" && !j < n && text.[!j] = '=' then begin
          incr j;
          skip_ws ();
          if !j < n && text.[!j] = '{' then begin
            let brace_start = !j in
            let depth = ref 1 in
            incr j;
            while !j < n && !depth > 0 do
              (match text.[!j] with
              | '{' -> incr depth
              | '}' -> decr depth
              | _ -> ());
              incr j
            done;
            let body = String.sub text brace_start (!j - brace_start) in
            if occurrences ~needle:"mutable" ~qualified:false body <> [] then
              mutable_types := name :: !mutable_types
          end
        end;
        scan_types !j
      end
      else scan_types (i + 1)
  in
  scan_types 0;
  if !mutable_types = [] then []
  else begin
    (* pass 2: variables annotated with a mutable record type *)
    let annotated = ref [] in
    Array.iter
      (fun line ->
        List.iter
          (fun ty ->
            List.iter
              (fun at ->
                (* walk back over ": ... (" to grab the variable name *)
                let k = ref (at - 1) in
                let skip_back_ws () =
                  while !k >= 0 && (line.[!k] = ' ' || line.[!k] = '\t') do
                    decr k
                  done
                in
                skip_back_ws ();
                if !k >= 0 && line.[!k] = ':' then begin
                  decr k;
                  skip_back_ws ();
                  let ende = !k in
                  while !k >= 0 && is_ident_char line.[!k] do
                    decr k
                  done;
                  (* only parenthesised annotations [(x : t)] — record
                     field declarations [x : t;] are not variables *)
                  let b = ref !k in
                  while !b >= 0 && (line.[!b] = ' ' || line.[!b] = '\t') do
                    decr b
                  done;
                  if ende > !k && !b >= 0 && line.[!b] = '(' then
                    annotated := String.sub line (!k + 1) (ende - !k) :: !annotated
                end)
              (occurrences ~needle:ty ~qualified:false line))
          !mutable_types)
      lines;
    let annotated = List.sort_uniq compare !annotated in
    (* pass 3: structural comparison of an annotated variable *)
    let hits = ref [] in
    Array.iteri
      (fun lineno line ->
        let flag var msg =
          hits :=
            {
              file = path;
              line = lineno + 1;
              rule = "poly-compare-mutable";
              message =
                Printf.sprintf
                  "%s: polymorphic %s on a mutable record; write a typed equal/compare"
                  var msg;
            }
            :: !hits
        in
        List.iter
          (fun var ->
            (* [compare var] *)
            List.iter
              (fun at ->
                let rest = at + String.length "compare" in
                let k = ref rest in
                while !k < String.length line && line.[!k] = ' ' do
                  incr k
                done;
                if occurrences ~needle:var ~qualified:false
                     (String.sub line !k (min (String.length var + 1) (String.length line - !k)))
                   |> List.mem 0
                then flag var "compare")
              (occurrences ~needle:"compare" ~qualified:false line);
            (* [var = ] / [var <> ] as a comparison, not a let-binding or
               field assignment *)
            List.iter
              (fun at ->
                let before = String.sub line 0 at in
                (* last identifier-ish token of [s], or the last
                   punctuation char; "." means [var] is a field path *)
                let last_token s =
                  let m = String.length s in
                  let e = ref (m - 1) in
                  while !e >= 0 && (s.[!e] = ' ' || s.[!e] = '\t') do
                    decr e
                  done;
                  if !e < 0 then None
                  else if not (is_ident_char s.[!e]) then Some (String.make 1 s.[!e])
                  else begin
                    let b = ref !e in
                    while !b >= 0 && is_ident_char s.[!b] do
                      decr b
                    done;
                    if !b >= 0 && s.[!b] = '.' then Some "."
                    else Some (String.sub s (!b + 1) (!e - !b))
                  end
                in
                let after = at + String.length var in
                let k = ref after in
                while !k < String.length line && line.[!k] = ' ' do
                  incr k
                done;
                let op =
                  if !k < String.length line && line.[!k] = '='
                     && (!k + 1 >= String.length line || line.[!k + 1] <> '=')
                  then Some "="
                  else if
                    !k + 1 < String.length line
                    && line.[!k] = '<' && line.[!k + 1] = '>'
                  then Some "<>"
                  else None
                in
                match op with
                | None -> ()
                | Some op ->
                  (* not a comparison when [var] is the bound name or a
                     parameter of a [let]/[and] definition head, or a
                     field path component *)
                  let prev = last_token before in
                  let def_head =
                    let s = String.trim before in
                    (String.length s >= 4 && String.sub s 0 4 = "let ")
                    || (String.length s >= 4 && String.sub s 0 4 = "and ")
                  in
                  let head_is_simple =
                    String.for_all
                      (fun c ->
                        is_ident_char c || c = ' ' || c = '\t' || c = '('
                        || c = ')' || c = ':' || c = '~' || c = '?')
                      before
                  in
                  let binding =
                    (def_head && head_is_simple)
                    ||
                    match prev with
                    | Some ("let" | "and" | "rec" | ".") -> true
                    | _ -> false
                  in
                  if not binding then flag var op)
              (occurrences ~needle:var ~qualified:false line))
          annotated)
      lines;
    List.rev !hits
  end

let mli_required path =
  if Filename.check_suffix path ".ml" && not (has_component mli_exempt_dirs path)
  then
    let mli = path ^ "i" in
    if Sys.file_exists mli then []
    else
      [
        {
          file = path;
          line = 1;
          rule = "mli-required";
          message = "library module has no interface file (" ^ Filename.basename mli ^ ")";
        };
      ]
  else []

let lint_source ~path src =
  let allow = pragmas src in
  let stripped = strip src in
  let vs =
    mli_required path
    @ bare_mutex_lock path stripped
    @ no_obj_magic path stripped
    @ poly_compare_mutable path stripped
    @ no_stdout_print path stripped
    @ no_toplevel_lazy path stripped
  in
  List.filter (fun v -> not (List.mem v.rule allow)) vs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file path = lint_source ~path (read_file path)

let rec source_files dir =
  match Sys.is_directory dir with
  | exception Sys_error _ -> []
  | false ->
    if Filename.check_suffix dir ".ml" || Filename.check_suffix dir ".mli" then
      [ dir ]
    else []
  | true ->
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> not (String.length f > 0 && f.[0] = '.'))
    |> List.concat_map (fun f -> source_files (Filename.concat dir f))

let lint_dirs dirs =
  let files = List.concat_map source_files dirs in
  let violations = List.concat_map lint_file files in
  { violations; files_scanned = List.length files }

let to_text { violations; files_scanned } =
  let buf = Buffer.create 256 in
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d: [%s] %s\n" v.file v.line v.rule v.message))
    violations;
  Buffer.add_string buf
    (Printf.sprintf "c4_lint: %d file(s) scanned, %d violation(s)\n" files_scanned
       (List.length violations));
  Buffer.contents buf

(* Serialise through the shared Obs.Json writer so escaping (control
   characters, quotes in messages) matches every other exporter. *)
let to_json { violations; files_scanned } =
  let module J = C4_obs.Json in
  let item v =
    J.Obj
      [
        ("file", J.Str v.file);
        ("line", J.Int v.line);
        ("rule", J.Str v.rule);
        ("message", J.Str v.message);
      ]
  in
  J.to_string
    (J.Obj
       [
         ("files_scanned", J.Int files_scanned);
         ("violations", J.List (List.map item violations));
       ])
  ^ "\n"
