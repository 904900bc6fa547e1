(* Machine-readable benchmark records (BENCH_<app>.json).

   One record per (app, input) pair: wall time, the scheduler's
   per-phase breakdown, round/commit counts, abstract work, and
   GC allocation deltas around the run. Records are written as a single
   flat JSON object so that any tooling can consume them, and parsed
   back by [of_json] (whitespace-tolerant, schema-validating) so the
   @bench-smoke alias can prove every emitted file is well-formed.

   Allocation metrics are measured on a single-domain run (det:1): in
   OCaml 5 the [Gc.quick_stat] allocation counters are dominated by the
   calling domain, so a 1-thread run is the configuration in which the
   "minor words per committed task" figure is exact. Determinism makes
   this representative: the det schedule (and thus the per-round
   bookkeeping being measured) is identical at every thread count. *)

type t = {
  app : string;
  policy : string;  (* policy of the timing run, e.g. "det:4" *)
  size : int;  (* input size (nodes / points, app-dependent) *)
  seed : int;
  build_s : float;  (* input-construction time (graph build); 0 when n/a *)
  graph_bytes : int;  (* off-heap bytes of the input graph; 0 when n/a *)
  wall_s : float;  (* wall time of the timing run *)
  inspect_s : float;  (* per-phase breakdown of the timing run *)
  select_s : float;
  other_s : float;
  commits : int;
  aborts : int;
  rounds : int;
  generations : int;
  work_units : int;  (* abstract (simmachine cost-model) work *)
  efficiency : float;  (* commits / work_units; 0 when no work recorded *)
  minor_words : float;  (* Gc.quick_stat deltas of the det:1 run *)
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  minor_words_per_commit : float;  (* minor_words / commits *)
  rounds_per_s : float;  (* rounds / wall_s of the timing run *)
  atomics_per_commit : float;  (* atomic mark updates / commits, timing run *)
  spins : int;  (* pool wakeups served by the spin fast path, timing run *)
  parks : int;  (* pool waits that fell back to the condvar, timing run *)
  queries_per_s : float;  (* service throughput; 0 for single-run apps *)
  p99_latency_s : float;  (* service p99 submit-to-done; 0 for single-run apps *)
  digest : string;  (* schedule digest (hex), "-" when absent *)
}

(* Scheduling efficiency: committed tasks per abstract work unit. A
   soft-priority policy that avoids wasted re-relaxations raises this
   figure on the same input without touching any timing metric. *)
let efficiency ~commits ~work_units =
  if work_units <= 0 then 0.0 else float_of_int commits /. float_of_int work_units

let minor_words_per_commit ~minor_words ~commits =
  if commits <= 0 then 0.0 else minor_words /. float_of_int commits

let rounds_per_s ~rounds ~wall_s =
  if wall_s <= 0.0 then 0.0 else float_of_int rounds /. wall_s

let atomics_per_commit ~atomics ~commits =
  if commits <= 0 then 0.0 else float_of_int atomics /. float_of_int commits

(* The three phase components must account for the whole wall time (the
   scheduler books everything outside inspect/select under other_s).
   Tolerance covers float noise only. *)
let phases_consistent t =
  let sum = t.inspect_s +. t.select_s +. t.other_s in
  Float.abs (sum -. t.wall_s) <= 1e-6 +. (1e-9 *. Float.abs t.wall_s)

(* ------------------------------------------------------------------ *)
(* JSON encoding                                                       *)
(* ------------------------------------------------------------------ *)

type jv = S of string | I of int | F of float

let fields t =
  [
    ("app", S t.app);
    ("policy", S t.policy);
    ("size", I t.size);
    ("seed", I t.seed);
    ("build_s", F t.build_s);
    ("graph_bytes", I t.graph_bytes);
    ("wall_s", F t.wall_s);
    ("inspect_s", F t.inspect_s);
    ("select_s", F t.select_s);
    ("other_s", F t.other_s);
    ("commits", I t.commits);
    ("aborts", I t.aborts);
    ("rounds", I t.rounds);
    ("generations", I t.generations);
    ("work_units", I t.work_units);
    ("efficiency", F t.efficiency);
    ("minor_words", F t.minor_words);
    ("promoted_words", F t.promoted_words);
    ("major_words", F t.major_words);
    ("minor_collections", I t.minor_collections);
    ("major_collections", I t.major_collections);
    ("minor_words_per_commit", F t.minor_words_per_commit);
    ("rounds_per_s", F t.rounds_per_s);
    ("atomics_per_commit", F t.atomics_per_commit);
    ("spins", I t.spins);
    ("parks", I t.parks);
    ("queries_per_s", F t.queries_per_s);
    ("p99_latency_s", F t.p99_latency_s);
    ("digest", S t.digest);
  ]

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let to_json t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf "  \"";
      Buffer.add_string buf k;
      Buffer.add_string buf "\": ";
      match v with
      | S s ->
          Buffer.add_char buf '"';
          add_escaped buf s;
          Buffer.add_char buf '"'
      | I i -> Buffer.add_string buf (string_of_int i)
      | F f -> add_float buf f)
    (fields t);
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON parsing (flat objects of strings and numbers only)             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let parse_flat text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad msg) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail (Printf.sprintf "expected %c at offset %d" c !pos)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match text.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match text.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if !pos + 4 >= n then fail "bad \\u escape";
                let hex = String.sub text (!pos + 1) 4 in
                let code =
                  try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
                in
                if code > 0xff then fail "\\u escape beyond latin-1"
                else Buffer.add_char buf (Char.chr code);
                pos := !pos + 4
            | c -> fail (Printf.sprintf "bad escape \\%c" c));
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num text.[!pos] do
      incr pos
    done;
    if !pos = start then fail (Printf.sprintf "expected value at offset %d" start);
    let txt = String.sub text start (!pos - start) in
    match int_of_string_opt txt with
    | Some i -> I i
    | None -> (
        match float_of_string_opt txt with
        | Some f -> F f
        | None -> fail (Printf.sprintf "bad number %S" txt))
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> S (parse_string ())
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unsupported value starting with %c" c)
    | None -> fail "truncated input"
  in
  expect '{';
  let acc = ref [] in
  skip_ws ();
  (match peek () with
  | Some '}' -> incr pos
  | _ ->
      let rec members () =
        skip_ws ();
        let k = parse_string () in
        expect ':';
        let v = parse_value () in
        if List.mem_assoc k !acc then fail (Printf.sprintf "duplicate field %S" k);
        acc := (k, v) :: !acc;
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            members ()
        | Some '}' -> incr pos
        | _ -> fail "expected ',' or '}'"
      in
      members ());
  skip_ws ();
  if !pos <> n then fail "trailing characters after object";
  List.rev !acc

let get fs k =
  match List.assoc_opt k fs with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" k))

let get_int fs k =
  match get fs k with
  | I i -> i
  | _ -> raise (Bad (Printf.sprintf "field %S: expected integer" k))

let get_float fs k =
  match get fs k with
  | F f -> f
  | I i -> float_of_int i
  | _ -> raise (Bad (Printf.sprintf "field %S: expected number" k))

let get_string fs k =
  match get fs k with
  | S s -> s
  | _ -> raise (Bad (Printf.sprintf "field %S: expected string" k))

let of_json text =
  match
    let fs = parse_flat text in
    let t =
      {
        app = get_string fs "app";
        policy = get_string fs "policy";
        size = get_int fs "size";
        seed = get_int fs "seed";
        build_s = get_float fs "build_s";
        graph_bytes = get_int fs "graph_bytes";
        wall_s = get_float fs "wall_s";
        inspect_s = get_float fs "inspect_s";
        select_s = get_float fs "select_s";
        other_s = get_float fs "other_s";
        commits = get_int fs "commits";
        aborts = get_int fs "aborts";
        rounds = get_int fs "rounds";
        generations = get_int fs "generations";
        work_units = get_int fs "work_units";
        efficiency = get_float fs "efficiency";
        minor_words = get_float fs "minor_words";
        promoted_words = get_float fs "promoted_words";
        major_words = get_float fs "major_words";
        minor_collections = get_int fs "minor_collections";
        major_collections = get_int fs "major_collections";
        minor_words_per_commit = get_float fs "minor_words_per_commit";
        rounds_per_s = get_float fs "rounds_per_s";
        atomics_per_commit = get_float fs "atomics_per_commit";
        spins = get_int fs "spins";
        parks = get_int fs "parks";
        queries_per_s = get_float fs "queries_per_s";
        p99_latency_s = get_float fs "p99_latency_s";
        digest = get_string fs "digest";
      }
    in
    (* Schema check: no fields beyond the record's own. *)
    let expected = List.map fst (fields t) in
    List.iter
      (fun (k, _) ->
        if not (List.mem k expected) then
          raise (Bad (Printf.sprintf "unexpected field %S" k)))
      fs;
    t
  with
  | t -> Ok t
  | exception Bad msg -> Error msg

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match of_json text with
      | Ok t -> Ok t
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let save path t = Out_channel.with_open_text path (fun oc -> output_string oc (to_json t))

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                 *)
(* ------------------------------------------------------------------ *)

type delta = {
  metric : string;
  baseline : float;
  current : float;
  change_pct : float;  (* (current - baseline) / baseline * 100 *)
}

let pct ~baseline ~current =
  if baseline = 0.0 then 0.0 else (current -. baseline) /. baseline *. 100.0

let compare_to ~baseline current =
  let d metric baseline current = { metric; baseline; current; change_pct = pct ~baseline ~current } in
  [
    d "wall_s" baseline.wall_s current.wall_s;
    d "inspect_s" baseline.inspect_s current.inspect_s;
    d "select_s" baseline.select_s current.select_s;
    d "other_s" baseline.other_s current.other_s;
    d "minor_words" baseline.minor_words current.minor_words;
    d "minor_words_per_commit" baseline.minor_words_per_commit
      current.minor_words_per_commit;
    (* Report-only metrics (no gate: the sync-overhead figures are
       machine-load-sensitive, and work/efficiency legitimately move
       when a case switches scheduling policy). *)
    d "work_units" (float_of_int baseline.work_units) (float_of_int current.work_units);
    d "efficiency" baseline.efficiency current.efficiency;
    d "rounds_per_s" baseline.rounds_per_s current.rounds_per_s;
    d "atomics_per_commit" baseline.atomics_per_commit current.atomics_per_commit;
    d "queries_per_s" baseline.queries_per_s current.queries_per_s;
    d "p99_latency_s" baseline.p99_latency_s current.p99_latency_s;
    d "build_s" baseline.build_s current.build_s;
    d "graph_bytes" (float_of_int baseline.graph_bytes)
      (float_of_int current.graph_bytes);
  ]

(* Six significant digits, so sub-0.05 values (tiny phase times,
   latencies, efficiency) stay distinct. *)
let pp_delta ppf d =
  Fmt.pf ppf "%-24s %14.6g -> %14.6g  (%+.1f%%)" d.metric d.baseline d.current
    d.change_pct
