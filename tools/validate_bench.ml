(* Schema validator for the machine-readable benchmark exports.

     validate_bench BENCH_fig9a.json [BENCH_fig9b.json ...]
     validate_bench --trace trace.json
     validate_bench --remarks remarks.json --profile profile.json
     validate_bench compare BASELINE.json CURRENT.json [--tol-mips PCT]

   Checks BENCH_*.json files (written by `bench --json`),
   chrome://tracing files (written by `--trace`), optimizer-remark
   dumps (`--remarks`) and cycle profiles (`--profile`) against the
   shapes CI depends on, so a schema drift fails the pipeline instead
   of silently producing unreadable artifacts.  The `compare`
   subcommand diffs two BENCH files row by row and exits nonzero when
   any row's simulated cycles differ at all: cycles are the paper's
   result and deterministic, so they change only with the baseline.  It
   also prints the aggregate emulated-MIPS delta, and `--tol-mips PCT`
   makes a throughput drop beyond PCT a hard failure.  Host time is
   not gated per row: a row is one sub-millisecond run, too short to
   tell a regression from noise.

   Each artifact's shape is one declarative field spec below, checked
   by [check] over the [Json] module's parser; only the invariants that
   relate several fields to each other are written out as code. *)

module Json = Obrew_json.Json

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* ------------------------------------------------------------------ *)
(* Field specs                                                         *)
(* ------------------------------------------------------------------ *)

type spec =
  | Any
  | Int of string * (int -> bool)     (* what the constraint says, test *)
  | Num of string * (float -> bool)   (* an Int or a Float *)
  | Str of string * (string -> bool)
  | Arr of spec                       (* every element *)
  | Fields of (string * spec) list    (* object with at least these *)
  | Map of spec                       (* object: every member's value *)
  | Counts                            (* counters, nested objects allowed *)
  | Nonempty of spec                  (* non-empty array or object *)

let any_int = Int ("an integer", fun _ -> true)
let int_min k = Int (Printf.sprintf ">= %d" k, fun n -> n >= k)
let nat = int_min 0
let int_in l =
  Int ("one of " ^ String.concat "|" (List.map string_of_int l),
       fun n -> List.mem n l)
let num = Num ("a number", fun _ -> true)
let num_nat = Num (">= 0", fun x -> x >= 0.0)
let str = Str ("a string", fun _ -> true)
let nonempty_str = Str ("non-empty", fun s -> s <> "")
let one_of l = Str ("one of " ^ String.concat "|" l, fun s -> List.mem s l)

let number = function
  | Json.Int n -> float_of_int n
  | Json.Float f -> f
  | _ -> nan

let rec check ctx spec (v : Json.t) =
  match (spec, v) with
  | Any, _ -> ()
  | Int (what, ok), Json.Int n ->
    if not (ok n) then fail "%s: %d is not %s" ctx n what
  | Num (what, ok), (Json.Int _ | Json.Float _) ->
    let x = number v in
    if not (ok x) then fail "%s: %g is not %s" ctx x what
  | Str (what, ok), Json.String s ->
    if not (ok s) then fail "%s: %S is not %s" ctx s what
  | Arr elt, Json.List l ->
    List.iteri (fun i x -> check (Printf.sprintf "%s[%d]" ctx i) elt x) l
  | Fields fs, Json.Obj kvs ->
    List.iter
      (fun (k, sp) ->
        match List.assoc_opt k kvs with
        | Some x -> check (ctx ^ "." ^ k) sp x
        | None -> fail "%s: missing field %S" ctx k)
      fs
  | Map elt, Json.Obj kvs ->
    List.iter (fun (k, x) -> check (Printf.sprintf "%s[%s]" ctx k) elt x) kvs
  | Counts, Json.Obj kvs ->
    List.iter
      (fun (k, x) ->
        check (ctx ^ "." ^ k) (match x with Json.Obj _ -> Counts | _ -> nat) x)
      kvs
  | Nonempty _, (Json.List [] | Json.Obj []) -> fail "%s: is empty" ctx
  | Nonempty sp, _ -> check ctx sp v
  | _ ->
    fail "%s: expected %s" ctx
      (match spec with
       | Int _ -> "an integer"
       | Num _ -> "a number"
       | Str _ -> "a string"
       | Arr _ -> "an array"
       | _ -> "an object")

(* Typed reads by path, for the cross-field invariants and [compare]. *)
let rec get ctx v = function
  | [] -> v
  | k :: ks -> (
    match v with
    | Json.Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some x -> get (ctx ^ "." ^ k) x ks
      | None -> fail "%s: missing field %S" ctx k)
    | _ -> fail "%s: expected an object" ctx)

let read spec conv ctx v path =
  let x = get ctx v path in
  let ctx = String.concat "." (ctx :: path) in
  check ctx spec x;
  conv x

let int_at = read any_int (function Json.Int n -> n | _ -> 0)
let num_at = read num number
let str_at = read str (function Json.String s -> s | _ -> "")
let list_at = read (Arr Any) (function Json.List l -> l | _ -> [])
let obj_at = read (Map Any) (function Json.Obj kvs -> kvs | _ -> [])

(* ------------------------------------------------------------------ *)
(* Schemas                                                             *)
(* ------------------------------------------------------------------ *)

(* BENCH files: every schema version shares this spec.  It ignores
   members it does not name, so v2 files (serve_latency/stage_latency
   objects) and v3 files (per-row wall_ns/wall_s) stay valid and
   comparable.  The tier figure shares the version number.  Counter
   objects may nest (superblocks.fused_pairs is a per-pattern
   breakdown); every leaf must be a non-negative integer. *)
let bench_versions = int_in [ 1; 2; 3; 4 ]

let bench_spec =
  [ ("schema_version", bench_versions);
    ("section",
     Str ("fig*", fun s -> String.length s > 3 && String.sub s 0 3 = "fig"));
    ("sz", int_min 3);
    ("iters", int_min 1);
    ("rows",
     Nonempty
       (Map
          (Fields
             [ ("kind", str); ("mode", str); ("cycles", int_min 1);
               ("insns", int_min 1) ])));
    ("emulated_mips", num_nat);
    ("superblocks", Counts);
    ("transform_memo", Counts);
    ("dbrew_memo", Counts) ]

let check_bench ctx j =
  check ctx (Fields bench_spec) j;
  let sv = int_at ctx j [ "schema_version" ] in
  (* the inline-cache and return-address-stack counters each travel as
     a pair: a file reporting hits without misses (or vice versa) is
     malformed.  Both absent is fine — baselines predating the counters
     stay readable. *)
  let sb = obj_at ctx j [ "superblocks" ] in
  List.iter
    (fun (h, m) ->
      if List.mem_assoc h sb <> List.mem_assoc m sb then
        fail "%s: superblocks needs %s and %s together" ctx h m)
    [ ("ic_hits", "ic_misses"); ("ras_hits", "ras_misses") ];
  Printf.printf "%s: OK (schema v%d, %d rows)\n" ctx sv
    (List.length (obj_at ctx j [ "rows" ]))

let remarks_spec =
  [ ("schema_version", int_in [ 1 ]);
    ("remarks",
     Arr
       (Fields
          [ ("pass", nonempty_str);
            ("action",
             one_of [ "deleted"; "merged"; "hoisted"; "unrolled";
                      "specialized" ]);
            ("guest_addr", nat); ("ord", nat); ("detail", str) ])) ]

let check_remarks ctx j =
  check ctx (Fields remarks_spec) j;
  Printf.printf "%s: OK (%d remarks)\n" ctx
    (List.length (list_at ctx j [ "remarks" ]))

let profile_spec =
  [ ("schema_version", int_in [ 1 ]);
    ("total_cycles", nat);
    ("total_execs", nat);
    ("rows",
     Arr
       (Fields
          [ ("addr", nat); ("cycles", nat); ("execs", int_min 1);
            ("share", Num ("in [0,1]", fun x -> x >= 0.0 && x <= 1.0)) ]));
    ("blocks",
     Arr (Fields [ ("entry", nat); ("cycles", nat); ("execs", int_min 1) ])) ]

let check_profile ctx j =
  check ctx (Fields profile_spec) j;
  let total = int_at ctx j [ "total_cycles" ] in
  let rows = list_at ctx j [ "rows" ] in
  List.iteri
    (fun i r ->
      let rctx = Printf.sprintf "%s.rows[%d]" ctx i in
      if int_at rctx r [ "cycles" ] > total then
        fail "%s: cycles exceed total_cycles" rctx)
    rows;
  Printf.printf "%s: OK (%d rows, %d blocks, %d cycles)\n" ctx
    (List.length rows) (List.length (list_at ctx j [ "blocks" ])) total

(* Sentinel runtime-validation stats (written by `stencil
   --sentinel-json`).  The counter inequalities are structural: every
   quarantine entry was produced by a divergence, and every demotion
   implies at least one check ran. *)
let sentinel_spec =
  ("schema_version", int_in [ 1 ])
  :: List.map
       (fun k -> (k, nat))
       [ "checks"; "divergences"; "quarantined"; "demotions"; "healed";
         "heal_retries"; "blocked_serves" ]

let check_sentinel ~min_divergences ~min_demotions ctx j =
  check ctx (Fields sentinel_spec) j;
  let get k = int_at ctx j [ k ] in
  if get "quarantined" > get "divergences" then
    fail "%s: quarantined (%d) exceeds divergences (%d)" ctx
      (get "quarantined") (get "divergences");
  if get "demotions" > 0 && get "checks" = 0 then
    fail "%s: demotions without any checks" ctx;
  if get "divergences" < min_divergences then
    fail "%s: divergences %d below required minimum %d" ctx
      (get "divergences") min_divergences;
  if get "demotions" < min_demotions then
    fail "%s: demotions %d below required minimum %d" ctx (get "demotions")
      min_demotions;
  Printf.printf
    "%s: OK (checks %d, divergences %d, quarantined %d, demotions %d, \
     healed %d)\n"
    ctx (get "checks") (get "divergences") (get "quarantined")
    (get "demotions") (get "healed")

(* Tiered-compilation figure (written by `bench --only tier --json`):
   per-strategy totals plus per-site tier rows.  Beyond shape, the
   structural invariants of the controller are re-checked here: the
   never-tier control must not have tiered or patched anything, every
   strategy must agree on slice count, and the figure's headline claim
   — the tiered run spends fewer simulated cycles than the never-tier
   control — must hold in the file CI archives. *)
let tier_strategies = [ "tiered"; "always"; "never" ]

let strategy_spec =
  Fields
    (("total_cycles", int_min 1)
     :: List.map
          (fun k -> (k, nat))
          [ "total_insns"; "cycles_to_peak"; "slices_to_peak";
            "reached_peak"; "hot_sites"; "patches"; "tierups"; "demotions";
            "compiles" ]
     @ List.map (fun k -> (k, num_nat))
         [ "compile_s"; "wall_s"; "time_to_peak_s" ]
     @ [ ("sites",
          Nonempty
            (Map
               (Fields
                  [ ("level", one_of [ "cold"; "warm"; "hot" ]);
                    ("slices", nat); ("compiles", nat); ("patches", nat) ])))
       ])

let tier_spec =
  [ ("schema_version", bench_versions);
    ("section", one_of [ "tier" ]);
    ("sz", int_min 3);
    ("slices", int_min 1);
    ("hot_threshold", int_min 1);
    ("strategies",
     Fields (List.map (fun s -> (s, strategy_spec)) tier_strategies)) ]

let check_tier ctx j =
  check ctx (Fields tier_spec) j;
  let slices = int_at ctx j [ "slices" ] in
  let get s k = int_at ctx j [ "strategies"; s; k ] in
  List.iter
    (fun s ->
      if get s "tierups" > get s "compiles" then
        fail "%s.%s: tierups exceed compiles" ctx s;
      if get s "demotions" > get s "compiles" then
        fail "%s.%s: demotions exceed compiles" ctx s;
      let total =
        List.fold_left
          (fun acc (_, row) -> acc + int_at ctx row [ "slices" ])
          0
          (obj_at ctx j [ "strategies"; s; "sites" ])
      in
      if total <> slices then
        fail "%s.%s: site slices sum to %d, expected %d" ctx s total slices)
    tier_strategies;
  if get "never" "tierups" <> 0 || get "never" "patches" <> 0 then
    fail "%s: never-tier control tiered up or patched" ctx;
  if get "tiered" "total_cycles" >= get "never" "total_cycles" then
    fail "%s: tiered total_cycles (%d) not below never-tier (%d)" ctx
      (get "tiered" "total_cycles")
      (get "never" "total_cycles");
  if get "tiered" "reached_peak" <> 1 then
    fail "%s: tiered run did not reach the top tier" ctx;
  Printf.printf
    "%s: OK (tiered %d cycles vs never %d, peak after %d of %d slices)\n" ctx
    (get "tiered" "total_cycles")
    (get "never" "total_cycles")
    (get "tiered" "slices_to_peak")
    slices

(* Black-box crash report (written by `stencil --blackbox` / `obrew
   report --json`): reason must be one of the typed triggers, the
   flight-recorder tail must carry strictly-increasing logical
   sequence numbers, and the section registry must have produced at
   least one section.  --blackbox-require-chain additionally asserts
   that a given causal chain of event kinds appears in the tail as an
   ordered subsequence (e.g. inject -> divergence -> quarantine ->
   demote). *)
let blackbox_spec =
  [ ("schema_version", int_in [ 1 ]);
    ("reason",
     one_of
       [ "typed-error"; "sentinel-divergence"; "uncaught-exception";
         "manual" ]);
    ("detail", str);
    ("active_spans", Arr str);
    ("flight",
     Fields
       [ ("recorded", nat); ("dropped", nat);
         ("events",
          Arr (Fields [ ("seq", any_int); ("kind", nonempty_str) ])) ]);
    ("sections", Nonempty (Map Any)) ]

let check_blackbox ~require_chain ctx j =
  check ctx (Fields blackbox_spec) j;
  let evs = list_at ctx j [ "flight"; "events" ] in
  let fctx = ctx ^ ".flight" in
  ignore
    (List.fold_left
       (fun (i, prev) e ->
         let seq = int_at fctx e [ "seq" ] in
         if seq <= prev then
           fail "%s.events[%d]: seq %d not strictly increasing (prev %d)" fctx
             i seq prev;
         (i + 1, seq))
       (0, -1) evs);
  let kinds = List.map (fun e -> str_at fctx e [ "kind" ]) evs in
  let rec sub need have =
    match (need, have) with
    | [], _ -> true
    | _, [] -> false
    | n :: ns, h :: hs -> if n = h then sub ns hs else sub need hs
  in
  if not (sub require_chain kinds) then
    fail "%s: event tail lacks the ordered chain %s" ctx
      (String.concat " -> " require_chain);
  Printf.printf "%s: OK (reason %s, %d event(s), %d section(s)%s)\n" ctx
    (str_at ctx j [ "reason" ]) (List.length evs)
    (List.length (obj_at ctx j [ "sections" ]))
    (if require_chain = [] then ""
     else ", causal chain " ^ String.concat " -> " require_chain)

let trace_spec =
  [ ("traceEvents",
     Nonempty
       (Arr
          (Fields
             [ ("name", nonempty_str); ("ph", one_of [ "X"; "i" ]);
               ("ts", num_nat) ])));
    ("otherData", Fields [ ("dropped_events", any_int) ]) ]

let check_trace ctx j =
  check ctx (Fields trace_spec) j;
  let evs = list_at ctx j [ "traceEvents" ] in
  (* complete spans ("X") also carry a duration *)
  List.iteri
    (fun i e ->
      let ectx = Printf.sprintf "%s.traceEvents[%d]" ctx i in
      if str_at ectx e [ "ph" ] = "X" then
        check ectx (Fields [ ("dur", num_nat) ]) e)
    evs;
  Printf.printf "%s: OK (%d events, %d dropped)\n" ctx (List.length evs)
    (int_at ctx j [ "otherData"; "dropped_events" ])

(* ------------------------------------------------------------------ *)

let load path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  try Json.parse s
  with Json.Parse_error m -> fail "%s: %s" (Filename.basename path) m

(* percentage change from [b] to [c]; 0 when there is no baseline *)
let delta b c = if b = 0.0 then 0.0 else 100.0 *. ((c /. b) -. 1.0)

(* ------------------------------------------------------------------ *)
(* compare: exact-cycle and MIPS gate over two BENCH files            *)
(* ------------------------------------------------------------------ *)

(* Index a BENCH file's rows' cycles by their "Kind/Mode" name. *)
let bench_rows ctx j =
  List.map
    (fun (name, row) ->
      let rctx = Printf.sprintf "%s.rows[%s]" ctx name in
      (name, int_at rctx row [ "cycles" ]))
    (obj_at ctx j [ "rows" ])

let compare_bench ~tol_mips base_path cur_path =
  let base = load base_path and cur = load cur_path in
  let bctx = Filename.basename base_path in
  let cctx = Filename.basename cur_path in
  let bsec = str_at bctx base [ "section" ] in
  let csec = str_at cctx cur [ "section" ] in
  if bsec <> csec then
    fail "compare: section mismatch (%s vs %s)" bsec csec;
  let brows = bench_rows bctx base in
  let crows = bench_rows cctx cur in
  let drifts =
    List.filter_map
      (fun (name, bc) ->
        match List.assoc_opt name crows with
        | None ->
          Printf.printf "  %-28s dropped from current\n" name;
          None
        | Some cc ->
          Printf.printf "  %-28s cycles %+7.1f%%\n" name
            (delta (float_of_int bc) (float_of_int cc));
          if cc <> bc then Some (name, bc, cc) else None)
      brows
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name brows) then
        Printf.printf "  %-28s new in current\n" name)
    crows;
  (* Throughput gate: the aggregate emulated-MIPS figure is the PR
     trajectory's headline metric, so compare always prints the delta and
     --tol-mips turns a drop beyond the given percentage into a failure.
     MIPS regressions are drops (current below baseline). *)
  let bmips = num_at bctx base [ "emulated_mips" ] in
  let cmips = num_at cctx cur [ "emulated_mips" ] in
  let dmips = delta bmips cmips in
  Printf.printf "  %-28s %8.2f -> %8.2f  (%+.1f%%)\n" "emulated_mips" bmips
    cmips dmips;
  let mips_failed =
    match tol_mips with
    | Some t when -.dmips > t ->
      Printf.eprintf
        "FAIL %s: emulated_mips dropped %.1f%% (%.2f -> %.2f, tolerance \
         %.0f%%)\n"
        bsec (-.dmips) bmips cmips t;
      true
    | _ -> false
  in
  (* exact gate: simulated cycles are machine-independent *)
  List.iter
    (fun (name, bc, cc) ->
      Printf.eprintf "FAIL %s: cycles of %s drifted (%d -> %d)\n" bsec name
        bc cc)
    drifts;
  if drifts <> [] || mips_failed then exit 1;
  Printf.printf "compare %s: OK (%d rows)\n" bsec (List.length brows)

(* ------------------------------------------------------------------ *)
(* compare-tier: per-strategy cycle gate over two tier figures         *)
(* ------------------------------------------------------------------ *)

(* The tier workload is fixed and its simulated cycles deterministic,
   so the default tolerance is 0%: any drift in a strategy's
   total_cycles fails the gate.  Wall-clock fields (compile_s,
   time_to_peak_s) are printed for the record, never gated. *)
let compare_tier ~tol base_path cur_path =
  let base = load base_path and cur = load cur_path in
  let bctx = Filename.basename base_path in
  let cctx = Filename.basename cur_path in
  if str_at bctx base [ "section" ] <> "tier"
     || str_at cctx cur [ "section" ] <> "tier"
  then fail "compare-tier: both files must have section \"tier\"";
  let regressions =
    List.filter_map
      (fun name ->
        let int ctx j k = int_at ctx j [ "strategies"; name; k ] in
        let num ctx j k = num_at ctx j [ "strategies"; name; k ] in
        let bcy = int bctx base "total_cycles" in
        let ccy = int cctx cur "total_cycles" in
        let d = delta (float_of_int bcy) (float_of_int ccy) in
        Printf.printf
          "  %-8s cycles %9d -> %9d (%+.2f%%)  time-to-peak %.3f -> %.3f ms\n"
          name bcy ccy d
          (num bctx base "time_to_peak_s" *. 1e3)
          (num cctx cur "time_to_peak_s" *. 1e3);
        if d > tol then Some (name, d) else None)
      tier_strategies
  in
  List.iter
    (fun (name, d) ->
      Printf.eprintf
        "FAIL tier: total_cycles of %s regressed %.2f%% (> %.1f%%)\n" name d
        tol)
    regressions;
  if regressions <> [] then exit 1;
  Printf.printf "compare-tier: OK (%d strategies, tolerance %.1f%%)\n"
    (List.length tier_strategies) tol

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: validate_bench [--trace FILE | --remarks FILE | --profile \
     FILE | --sentinel FILE | --tier FILE | --blackbox FILE | \
     BENCH_*.json] ...\n\
    \       [--sentinel-min-divergences N] [--sentinel-min-demotions N]\n\
    \       [--blackbox-require-chain k1,k2,...]\n\
    \       validate_bench compare BASELINE.json CURRENT.json [--tol-mips \
     PCT]\n\
    \       validate_bench compare-tier BASELINE.json CURRENT.json \
     [--tol PCT]";
  exit 2

let die msg = prerr_endline msg; exit 2

(* run a compare subcommand: a failed read or check exits 1 *)
let gate f =
  try f () with Bad m | Sys_error m -> Printf.eprintf "FAIL %s\n" m; exit 1

(* the percentage [flags] given (last one wins) and the file operands *)
let compare_args flags rest =
  let rec go tols files = function
    | fl :: t :: tl when List.mem fl flags ->
      go ((fl, float_of_string t) :: tols) files tl
    | [ fl ] when List.mem fl flags ->
      die (String.concat "/" flags ^ " need a percentage argument")
    | f :: tl -> go tols (f :: files) tl
    | [] -> ((fun fl -> List.assoc_opt fl tols), List.rev files)
  in
  go [] [] rest

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> usage ()
  | "compare" :: rest -> (
    let tol, files = compare_args [ "--tol-mips" ] rest in
    match files with
    | [ base; cur ] ->
      gate (fun () -> compare_bench ~tol_mips:(tol "--tol-mips") base cur)
    | _ -> usage ())
  | "compare-tier" :: rest -> (
    let tol, files = compare_args [ "--tol" ] rest in
    match files with
    | [ base; cur ] ->
      gate (fun () ->
          compare_tier ~tol:(Option.value ~default:0.0 (tol "--tol")) base cur)
    | _ -> usage ())
  | args ->
    (* thresholds apply to every --sentinel file, wherever they appear
       on the command line, so read them all before any file is checked *)
    let min_div = ref 0 and min_dem = ref 0 and chain = ref [] in
    let rec parse = function
      | "--sentinel-min-divergences" :: n :: tl ->
        min_div := int_of_string n;
        parse tl
      | "--sentinel-min-demotions" :: n :: tl ->
        min_dem := int_of_string n;
        parse tl
      | "--blackbox-require-chain" :: ks :: tl ->
        chain :=
          List.filter (fun k -> k <> "")
            (List.map String.trim (String.split_on_char ',' ks));
        parse tl
      | [ ("--sentinel-min-divergences" | "--sentinel-min-demotions") ] ->
        die "--sentinel-min-* need an integer argument"
      | [ "--blackbox-require-chain" ] ->
        die "--blackbox-require-chain needs a comma-separated kind list"
      | ("--trace" | "--remarks" | "--profile" | "--sentinel" | "--tier"
        | "--blackbox" as fl) :: f :: tl -> (fl, f) :: parse tl
      | [ ("--trace" | "--remarks" | "--profile" | "--sentinel" | "--tier"
          | "--blackbox") ] -> die "flag needs a file argument"
      | f :: tl -> ("bench", f) :: parse tl
      | [] -> []
    in
    let files = parse args in
    let check_of = function
      | "--trace" -> check_trace
      | "--remarks" -> check_remarks
      | "--profile" -> check_profile
      | "--sentinel" ->
        check_sentinel ~min_divergences:!min_div ~min_demotions:!min_dem
      | "--tier" -> check_tier
      | "--blackbox" -> check_blackbox ~require_chain:!chain
      | _ -> check_bench
    in
    let failed = ref false in
    List.iter
      (fun (kind, f) ->
        try check_of kind (Filename.basename f) (load f) with
        | Bad m | Sys_error m -> Printf.eprintf "FAIL %s\n" m; failed := true
        | e ->
          Printf.eprintf "FAIL %s %s: %s\n" kind f (Printexc.to_string e);
          failed := true)
      files;
    if !failed then exit 1
