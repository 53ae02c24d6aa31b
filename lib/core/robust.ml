(** Counters for the fail-safe pipeline: how often {!Modes.transform_safe}
    ran, how often it degraded, which stages failed and where requests
    finally landed.  Global (per-process) on purpose — the CLI's
    [--stats] flag reports them after a run regardless of how many
    environments were built. *)

open Obrew_fault

type t = {
  mutable safe_runs : int;       (* transform_safe invocations *)
  mutable degraded : int;        (* runs that landed below the request *)
  mutable attempts : int;        (* individual mode attempts *)
  mutable failures : int;        (* attempts that failed with a typed error *)
  mutable dropped_passes : int;  (* optimizer passes dropped by run_checked *)
  by_stage : (Err.stage, int) Hashtbl.t; (* failures per pipeline stage *)
  by_mode : (string, int) Hashtbl.t;     (* landings per final mode *)
  (* sentinel: shadow-validation outcomes (see Obrew_sentinel) *)
  mutable sentinel_checks : int;       (* shadow validations performed *)
  mutable sentinel_divergences : int;  (* validations that caught a bug *)
  mutable sentinel_demotions : int;    (* serves re-pointed down the chain *)
  mutable sentinel_healed : int;       (* requests restored to their tier *)
}

let stats =
  { safe_runs = 0; degraded = 0; attempts = 0; failures = 0;
    dropped_passes = 0; by_stage = Hashtbl.create 8;
    by_mode = Hashtbl.create 8;
    sentinel_checks = 0; sentinel_divergences = 0; sentinel_demotions = 0;
    sentinel_healed = 0 }

let reset () =
  stats.safe_runs <- 0;
  stats.degraded <- 0;
  stats.attempts <- 0;
  stats.failures <- 0;
  stats.dropped_passes <- 0;
  Hashtbl.reset stats.by_stage;
  Hashtbl.reset stats.by_mode;
  stats.sentinel_checks <- 0;
  stats.sentinel_divergences <- 0;
  stats.sentinel_demotions <- 0;
  stats.sentinel_healed <- 0

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let record_attempt () = stats.attempts <- stats.attempts + 1

let record_failure (e : Err.t) =
  stats.failures <- stats.failures + 1;
  bump stats.by_stage e.Err.stage

let record_landing ~degraded mode =
  if degraded then stats.degraded <- stats.degraded + 1;
  bump stats.by_mode mode

let record_dropped n = stats.dropped_passes <- stats.dropped_passes + n

let record_sentinel_check () =
  stats.sentinel_checks <- stats.sentinel_checks + 1

let record_sentinel_divergence () =
  stats.sentinel_divergences <- stats.sentinel_divergences + 1

let record_sentinel_demotion () =
  stats.sentinel_demotions <- stats.sentinel_demotions + 1

let record_sentinel_heal () =
  stats.sentinel_healed <- stats.sentinel_healed + 1

let to_string () =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "robust: %d safe run(s), %d degraded, %d attempt(s), %d failure(s), \
        %d dropped pass(es)\n"
       stats.safe_runs stats.degraded stats.attempts stats.failures
       stats.dropped_passes);
  List.iter
    (fun st ->
      match Hashtbl.find_opt stats.by_stage st with
      | Some n when n > 0 ->
        Buffer.add_string b
          (Printf.sprintf "  failures at %-8s %d\n" (Err.stage_name st) n)
      | _ -> ())
    Err.all_stages;
  let modes = Hashtbl.fold (fun k v acc -> (k, v) :: acc) stats.by_mode [] in
  List.iter
    (fun (m, n) ->
      Buffer.add_string b (Printf.sprintf "  landed on %-10s %d\n" m n))
    (List.sort compare modes);
  Buffer.contents b

(** The counters as JSON — the black-box report's "robust" section. *)
let to_json () =
  Obrew_json.Json.ints
    [ ("safe_runs", stats.safe_runs); ("degraded", stats.degraded);
      ("attempts", stats.attempts); ("failures", stats.failures);
      ("dropped_passes", stats.dropped_passes);
      ("sentinel_checks", stats.sentinel_checks);
      ("sentinel_divergences", stats.sentinel_divergences);
      ("sentinel_demotions", stats.sentinel_demotions);
      ("sentinel_healed", stats.sentinel_healed) ]
