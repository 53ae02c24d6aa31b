(* End-to-end test of validate_bench, run as the real executable.

     test_validate_bench VALIDATE_BENCH.EXE BASELINE_DIR

   Positive: the committed baselines validate, and each compares
   cleanly against itself under CI's tolerances.  Negative: one case
   per rejection the validator makes.  A case is a mutated copy of a
   valid base document written to a temporary file; the validator must
   exit nonzero and say why (the expected fragment of its message).
   The bench and tier bases are the committed baselines; the other
   artifacts have none, so their bases are small valid documents
   declared here (each is first checked to pass). *)

module Json = Obrew_json.Json

(* a bare file name would be looked up on PATH *)
let exe =
  let e = Sys.argv.(1) in
  if Filename.is_implicit e then Filename.concat Filename.current_dir_name e
  else e

let baselines = Sys.argv.(2)

let read path = In_channel.with_open_bin path In_channel.input_all
let baseline name = Filename.concat baselines name

let tmp_of contents =
  let f = Filename.temp_file "validate_bench" ".json" in
  Out_channel.with_open_bin f (fun oc -> output_string oc contents);
  f

(* run the validator; (exit code, everything it printed) *)
let run args =
  let log = Filename.temp_file "validate_bench" ".log" in
  let code =
    Sys.command (Filename.quote_command exe args ~stdout:log ~stderr:log)
  in
  let out = read log in
  Sys.remove log;
  (code, out)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* [edit path f v] replaces the value at [path] by [f] of it (None
   removes a field, or [f None] adds one); a path step into an array is
   the element's index *)
let rec edit path f (v : Json.t) : Json.t =
  match (path, v) with
  | [ k ], Json.Obj kvs -> (
    match f (List.assoc_opt k kvs) with
    | None -> Json.Obj (List.remove_assoc k kvs)
    | Some x when List.mem_assoc k kvs ->
      Json.Obj (List.map (fun (k', y) -> (k', if k' = k then x else y)) kvs)
    | Some x -> Json.Obj (kvs @ [ (k, x) ]))
  | k :: ks, Json.Obj kvs ->
    Json.Obj (List.map (fun (k', y) -> (k', if k' = k then edit ks f y else y)) kvs)
  | k :: ks, Json.List l ->
    let i = int_of_string k in
    Json.List
      (List.mapi
         (fun j y ->
           if j <> i then y
           else if ks = [] then Option.get (f (Some y))
           else edit ks f y)
         l)
  | _ -> invalid_arg ("edit: no path " ^ String.concat "." path)

let set path x = edit path (fun _ -> Some x)
let del path = edit path (fun _ -> None)

(* apply [f] to the integer at [path] *)
let bump path f =
  edit path (function Some (Json.Int n) -> Some (Json.Int (f n)) | v -> v)

let rec get path v =
  match path with [] -> v | k :: ks -> get ks (Option.get (Json.member k v))

let first_key path v =
  match get path v with
  | Json.Obj ((k, _) :: _) -> k
  | _ -> failwith ("no members at " ^ String.concat "." path)

let int n = Json.Int n
let str s = Json.String s

(* ------------------------------------------------------------------ *)
(* Bases                                                               *)
(* ------------------------------------------------------------------ *)

let fig9a = Json.parse (read (baseline "BENCH_fig9a.json"))
let tier = Json.parse (read (baseline "BENCH_tier.json"))

let first_site = first_key [ "strategies"; "tiered"; "sites" ] tier

let trace =
  Json.parse
    {|{"traceEvents": [{"name": "a", "ph": "X", "ts": 1.5, "dur": 2.0},
                       {"name": "b", "ph": "i", "ts": 3.0}],
       "otherData": {"dropped_events": 0}}|}

let profile =
  Json.parse
    {|{"schema_version": 1, "total_cycles": 100, "total_execs": 10,
       "rows": [{"addr": 4096, "cycles": 60, "execs": 5, "share": 0.6}],
       "blocks": [{"entry": 4096, "cycles": 60, "execs": 5}]}|}

let remarks =
  Json.parse
    {|{"schema_version": 1,
       "remarks": [{"pass": "dce", "action": "deleted", "guest_addr": 4096,
                    "ord": 0, "detail": "dead add"}]}|}

let sentinel =
  Json.parse
    {|{"schema_version": 1, "checks": 3, "divergences": 1, "quarantined": 1,
       "demotions": 1, "healed": 0, "heal_retries": 0, "blocked_serves": 0}|}

let blackbox =
  Json.parse
    {|{"schema_version": 1, "reason": "manual", "detail": "snapshot",
       "active_spans": ["transform"],
       "flight": {"recorded": 2, "dropped": 0,
                  "events": [{"seq": 0, "kind": "fault.sabotaged"},
                             {"seq": 1, "kind": "sentinel.divergence"}]},
       "sections": {"engine": {"hits": 1}}}|}

(* ------------------------------------------------------------------ *)
(* Cases                                                               *)
(* ------------------------------------------------------------------ *)

(* (name, validator args for the mutated file, file contents, expected
   message fragment) *)
let case name args base mutate want =
  (name, args, Json.to_string (mutate base), want)

let bench name = case ("bench: " ^ name) (fun f -> [ f ]) fig9a
let flag fl base name = case (fl ^ ": " ^ name) (fun f -> [ fl; f ]) base
let row = [ "rows"; "Direct/Native" ]
let strat s k = [ "strategies"; s; k ]
let site k = [ "strategies"; "tiered"; "sites"; first_site; k ]

let bench_cases =
  [ ("bench: not JSON", (fun f -> [ f ]), {|{"schema_version": 2,|}, "offset");
    ("bench: trailing garbage", (fun f -> [ f ]), "{} {}", "trailing garbage");
    bench "unsupported schema_version" (set [ "schema_version" ] (int 4))
      "schema_version";
    bench "schema_version not an int" (set [ "schema_version" ] (str "2"))
      "expected an integer";
    bench "bad section" (set [ "section" ] (str "tier")) "section";
    bench "sz < 3" (set [ "sz" ] (int 2)) ".sz";
    bench "iters < 1" (set [ "iters" ] (int 0)) ".iters";
    bench "rows empty" (set [ "rows" ] (Json.Obj [])) "rows: is empty";
    bench "row without kind" (del (row @ [ "kind" ])) "missing field \"kind\"";
    bench "row mode not a string" (set (row @ [ "mode" ]) (int 1)) ".mode";
    bench "cycles <= 0" (set (row @ [ "cycles" ]) (int 0)) ".cycles";
    bench "cycles not an integer" (set (row @ [ "cycles" ]) (Json.Float 1.5))
      "expected an integer";
    bench "insns <= 0" (set (row @ [ "insns" ]) (int 0)) ".insns";
    bench "wall_ns < 0" (set (row @ [ "wall_ns" ]) (int (-1))) ".wall_ns";
    bench "wall_s not a number" (set (row @ [ "wall_s" ]) (str "x")) ".wall_s";
    bench "emulated_mips < 0" (set [ "emulated_mips" ] (Json.Float (-1.0)))
      "emulated_mips";
    bench "hit rate > 1" (set [ "superblock_hit_rate" ] (Json.Float 1.5))
      "superblock_hit_rate";
    bench "negative superblock counter" (set [ "superblocks"; "hits" ] (int (-1)))
      "superblocks.hits";
    bench "superblocks not an object" (set [ "superblocks" ] (int 1))
      "expected an object";
    bench "negative nested counter"
      (set [ "superblocks"; "fused_pairs"; "spill" ] (int (-1)))
      "fused_pairs.spill";
    bench "ic_hits without ic_misses" (del [ "superblocks"; "ic_misses" ])
      "ic_hits and ic_misses together";
    bench "negative transform_memo" (set [ "transform_memo"; "hits" ] (int (-1)))
      "transform_memo.hits";
    bench "negative dbrew_memo" (set [ "dbrew_memo"; "misses" ] (int (-1)))
      "dbrew_memo.misses" ]

let remark k = [ "remarks"; "0"; k ]

let remarks_cases =
  let c = flag "--remarks" remarks in
  [ c "unsupported schema_version" (set [ "schema_version" ] (int 2))
      "schema_version";
    c "remarks not an array" (set [ "remarks" ] (Json.Obj [])) "expected an array";
    c "empty pass" (set (remark "pass") (str "")) ".pass";
    c "unknown action" (set (remark "action") (str "bogus")) ".action";
    c "negative guest_addr" (set (remark "guest_addr") (int (-1))) ".guest_addr";
    c "negative ord" (set (remark "ord") (int (-1))) ".ord";
    c "detail not a string" (set (remark "detail") (int 1)) ".detail" ]

let prow k = [ "rows"; "0"; k ]
let pblock k = [ "blocks"; "0"; k ]

let profile_cases =
  let c = flag "--profile" profile in
  [ c "unsupported schema_version" (set [ "schema_version" ] (int 2))
      "schema_version";
    c "negative total_cycles" (set [ "total_cycles" ] (int (-1))) "total_cycles";
    c "negative total_execs" (set [ "total_execs" ] (int (-1))) "total_execs";
    c "negative addr" (set (prow "addr") (int (-1))) ".addr";
    c "negative row cycles" (set (prow "cycles") (int (-1))) ".cycles";
    c "row cycles exceed total" (set (prow "cycles") (int 101))
      "cycles exceed total_cycles";
    c "row execs <= 0" (set (prow "execs") (int 0)) ".execs";
    c "share > 1" (set (prow "share") (Json.Float 1.5)) ".share";
    c "negative block entry" (set (pblock "entry") (int (-1))) ".entry";
    c "negative block cycles" (set (pblock "cycles") (int (-1))) ".cycles";
    c "block execs <= 0" (set (pblock "execs") (int 0)) ".execs" ]

let sentinel_counters =
  [ "checks"; "divergences"; "quarantined"; "demotions"; "healed";
    "heal_retries"; "blocked_serves" ]

let sentinel_cases =
  let c = flag "--sentinel" sentinel in
  let floor fl =
    case ("--sentinel: " ^ fl) (fun f -> [ fl; "2"; "--sentinel"; f ]) sentinel
      Fun.id "below required minimum"
  in
  (c "unsupported schema_version" (set [ "schema_version" ] (int 2))
     "schema_version"
   :: List.map
        (fun k -> c ("negative " ^ k) (set [ k ] (int (-1))) ("." ^ k))
        sentinel_counters)
  @ [ c "quarantined > divergences" (set [ "quarantined" ] (int 2))
        "exceeds divergences";
      c "demotions without checks" (set [ "checks" ] (int 0))
        "demotions without any checks";
      floor "--sentinel-min-divergences";
      floor "--sentinel-min-demotions" ]

let tier_counters =
  [ "total_cycles"; "total_insns"; "cycles_to_peak"; "slices_to_peak";
    "reached_peak"; "hot_sites"; "patches"; "tierups"; "demotions";
    "compiles" ]

let tier_cases =
  let c = flag "--tier" tier in
  [ c "unsupported schema_version" (set [ "schema_version" ] (int 4))
      "schema_version";
    c "bad section" (set [ "section" ] (str "fig9a")) ".section";
    c "sz < 3" (set [ "sz" ] (int 2)) ".sz";
    c "slices < 1" (set [ "slices" ] (int 0)) ".slices";
    c "hot_threshold < 1" (set [ "hot_threshold" ] (int 0)) ".hot_threshold";
    c "missing strategy" (del [ "strategies"; "always" ])
      "missing field \"always\"" ]
  @ List.map
      (fun k ->
        c ("negative " ^ k) (set (strat "tiered" k) (int (-1))) ("tiered." ^ k))
      tier_counters
  @ List.map
      (fun k ->
        c ("negative " ^ k) (set (strat "tiered" k) (Json.Float (-1.0)))
          ("tiered." ^ k))
      [ "compile_s"; "wall_s"; "time_to_peak_s" ]
  @ [ c "total_cycles = 0" (set (strat "never" "total_cycles") (int 0))
        "never.total_cycles";
      c "tierups > compiles" (set (strat "tiered" "tierups") (int 100))
        "tierups exceed compiles";
      c "demotions > compiles" (set (strat "tiered" "demotions") (int 100))
        "demotions exceed compiles";
      c "no sites" (set (strat "tiered" "sites") (Json.Obj [])) "is empty";
      c "unknown level" (set (site "level") (str "lukewarm")) ".level";
      c "negative site compiles" (set (site "compiles") (int (-1))) ".compiles";
      c "negative site patches" (set (site "patches") (int (-1))) ".patches";
      c "site slices do not sum" (bump (site "slices") succ) "site slices sum";
      c "never-tier patched" (set (strat "never" "patches") (int 1))
        "never-tier control";
      c "tiered not below never"
        (set (strat "tiered" "total_cycles")
           (get (strat "never" "total_cycles") tier))
        "not below never-tier";
      c "tiered never peaked" (set (strat "tiered" "reached_peak") (int 0))
        "did not reach the top tier" ]

let event k = [ "flight"; "events"; "1"; k ]

let blackbox_cases =
  let c = flag "--blackbox" blackbox in
  [ c "unsupported schema_version" (set [ "schema_version" ] (int 2))
      "schema_version";
    c "unknown reason" (set [ "reason" ] (str "bogus")) ".reason";
    c "detail not a string" (set [ "detail" ] (int 1)) ".detail";
    c "span not a string" (set [ "active_spans" ] (Json.List [ int 1 ]))
      "active_spans[0]";
    c "negative recorded" (set [ "flight"; "recorded" ] (int (-1))) ".recorded";
    c "negative dropped" (set [ "flight"; "dropped" ] (int (-1))) ".dropped";
    c "seq not increasing" (set (event "seq") (int 0)) "not strictly increasing";
    c "empty kind" (set (event "kind") (str "")) ".kind";
    c "no sections" (set [ "sections" ] (Json.Obj [])) "sections: is empty";
    case "--blackbox: chain out of order"
      (fun f ->
        [ "--blackbox-require-chain"; "sentinel.divergence,fault.sabotaged";
          "--blackbox"; f ])
      blackbox Fun.id "lacks the ordered chain" ]

let tev k = [ "traceEvents"; "0"; k ]

let trace_cases =
  let c = flag "--trace" trace in
  [ c "no events" (set [ "traceEvents" ] (Json.List [])) "traceEvents: is empty";
    c "empty name" (set (tev "name") (str "")) ".name";
    c "unexpected phase" (set (tev "ph") (str "B")) ".ph";
    c "span without dur" (del (tev "dur")) "missing field \"dur\"";
    c "negative dur" (set (tev "dur") (Json.Float (-1.0))) ".dur";
    c "negative ts" (set (tev "ts") (Json.Float (-1.0))) ".ts";
    c "dropped_events missing" (del [ "otherData"; "dropped_events" ])
      "dropped_events" ]

(* compare / compare-tier: the baseline against a mutated current *)
let compare_cases =
  let cmp name extra mutate want =
    case ("compare: " ^ name)
      (fun f -> [ "compare"; baseline "BENCH_fig9a.json"; f ] @ extra)
      fig9a mutate want
  in
  let cmp_tier name mutate want =
    case ("compare-tier: " ^ name)
      (fun f -> [ "compare-tier"; baseline "BENCH_tier.json"; f ])
      tier mutate want
  in
  [ cmp "section mismatch" [] (set [ "section" ] (str "fig9b"))
      "section mismatch";
    cmp "wall time regressed" [] (bump (row @ [ "wall_ns" ]) (( * ) 10))
      "wall time of Direct/Native regressed";
    cmp "cycles drifted" [ "--tol"; "300" ] (bump (row @ [ "cycles" ]) pred)
      "cycles of Direct/Native drifted";
    cmp "MIPS dropped" [ "--tol-mips"; "75" ]
      (set [ "emulated_mips" ] (Json.Float 0.001))
      "emulated_mips dropped";
    cmp_tier "not a tier figure" (set [ "section" ] (str "fig9a"))
      "both files must have section";
    cmp_tier "cycles regressed" (bump (strat "tiered" "total_cycles") succ)
      "total_cycles of tiered regressed" ]

(* ------------------------------------------------------------------ *)

let () =
  let failures = ref 0 in
  let bad fmt =
    Printf.ksprintf (fun m -> incr failures; print_endline ("FAIL " ^ m)) fmt
  in
  let expect_ok name args =
    let code, out = run args in
    if code <> 0 then bad "%s: rejected (exit %d)\n%s" name code out
  in
  (* positive: the baselines, self-comparisons, and every declared base *)
  let ci_tols = [ "--tol"; "300"; "--tol-mips"; "75" ] in
  expect_ok "baselines"
    [ baseline "BENCH_fig9a.json"; baseline "BENCH_fig9b.json"; "--tier";
      baseline "BENCH_tier.json" ];
  (* the current shape: a v3 file without the retired latency objects
     validates and compares against the v2 baseline *)
  let v3 =
    tmp_of
      (Json.to_string
         (fig9a
         |> set [ "schema_version" ] (int 3)
         |> del [ "serve_latency" ] |> del [ "stage_latency" ]))
  in
  expect_ok "v3 bench" [ v3 ];
  expect_ok "compare v2 baseline with v3"
    ([ "compare"; baseline "BENCH_fig9a.json"; v3 ] @ ci_tols);
  Sys.remove v3;
  List.iter
    (fun f ->
      let b = baseline f in
      expect_ok ("compare " ^ f) ([ "compare"; b; b ] @ ci_tols);
      expect_ok ("compare (default tolerances) " ^ f) [ "compare"; b; b ])
    [ "BENCH_fig9a.json"; "BENCH_fig9b.json" ];
  let tb = baseline "BENCH_tier.json" in
  expect_ok "compare-tier" [ "compare-tier"; tb; tb ];
  List.iter
    (fun (fl, base) ->
      let f = tmp_of (Json.to_string base) in
      expect_ok ("base for " ^ fl) [ fl; f ];
      Sys.remove f)
    [ ("--trace", trace); ("--profile", profile); ("--remarks", remarks);
      ("--sentinel", sentinel); ("--blackbox", blackbox) ];
  (* negative: every rejection *)
  let cases =
    List.concat
      [ bench_cases; remarks_cases; profile_cases; sentinel_cases; tier_cases;
        blackbox_cases; trace_cases; compare_cases ]
  in
  List.iter
    (fun (name, args, contents, want) ->
      let f = tmp_of contents in
      let code, out = run (args f) in
      Sys.remove f;
      if code = 0 then bad "%s: accepted" name
      else if not (contains out want) then
        bad "%s: rejected without %S:\n%s" name want out)
    cases;
  if !failures > 0 then begin
    Printf.printf "%d validate_bench check(s) failed\n" !failures;
    exit 1
  end
