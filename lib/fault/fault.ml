(** Deterministic fault injection for the rewriting pipeline.

    Each pipeline stage is instrumented with named injection points
    ([Fault.point "opt.gvn"], ["decode.truncated"], ["backend.isel"],
    …).  With no plan installed a point is a cheap no-op; an installed
    {!plan} arms a subset of points, and an armed point raises the
    typed {!Err.Error} of its stage with an ["injected: …"] detail.
    Plans are plain data — a QCheck generator (or [--fault] on the
    CLI) produces them deterministically from a seed, which makes every
    failing run replayable. *)

type arm = {
  a_point : string;     (** injection point name, e.g. ["opt.gvn"] *)
  mutable a_skip : int; (** let this many hits pass unharmed first *)
  mutable a_fires : int;(** then fail this many hits; [-1] = forever *)
}

type plan = arm list

let arm ?(skip = 0) ?(fires = -1) point =
  { a_point = point; a_skip = skip; a_fires = fires }

(** Every injection point wired into the pipeline, with the stage its
    injected error carries. *)
let known_points : (string * Err.stage) list =
  [ ("decode.truncated", Err.Decode);
    ("encode.assemble", Err.Encode);
    ("install.code", Err.Install);
    ("lift.discover", Err.Lift);
    ("lift.block", Err.Lift);
    ("opt.simplifycfg", Err.Opt);
    ("opt.instcombine", Err.Opt);
    ("opt.mem2reg", Err.Opt);
    ("opt.gvn", Err.Opt);
    ("opt.dce", Err.Opt);
    ("opt.inline", Err.Opt);
    ("opt.licm", Err.Opt);
    ("opt.unroll", Err.Opt);
    ("opt.vectorize", Err.Opt);
    ("verify.func", Err.Verify);
    ("backend.isel", Err.Isel);
    ("rewrite.trace", Err.Encode);
    ("rewrite.emit", Err.Encode);
    ("emulate.scratch", Err.Emulate) ]

(** Saboteur points: instead of raising, an armed hit silently corrupts
    the stage's output (dropped store, inverted branch, flipped SSE op,
    stomped entry byte).  They exist to drill the sentinel — the
    corruption must be *caught* by shadow validation, not reported by
    the pipeline — so they are kept out of {!known_points}, which plain
    fallback-chain tests sweep expecting typed errors. *)
let saboteur_points : (string * Err.stage) list =
  [ ("sabotage.isel.item", Err.Isel);
    ("sabotage.rewrite.item", Err.Encode);
    ("sabotage.install.bytes", Err.Install) ]

(** Engine saboteur points: corrupt the execution engine's own
    dispatch rather than an emitted artifact.  [sabotage.isel.indirect]
    makes the superblock engine trust a stale inline-cache prediction
    on an indirect branch without revalidating it — silent wrong-block
    execution.  Unlike {!saboteur_points} the corruption is not
    confined to one translated kernel: it also poisons reference
    probes run through the same engine, so drills must arm these only
    against a throwaway image, never a shared environment. *)
let engine_saboteur_points : (string * Err.stage) list =
  [ ("sabotage.isel.indirect", Err.Isel) ]

(** Untyped points: an armed hit raises a bare [Failure] instead of a
    typed {!Err.Error} — they drill [Modes.transform_safe]'s
    last-resort handler, whose job is to attribute an arbitrary
    escaping exception to the pipeline stage it escaped from.  The
    stage listed here is where the raise happens (and therefore what
    correct attribution must report).  Kept out of {!known_points}:
    tests sweeping that list expect typed errors. *)
let untyped_points : (string * Err.stage) list =
  [ ("untyped.lift", Err.Lift); ("untyped.opt", Err.Opt) ]

let all_points =
  known_points @ saboteur_points @ engine_saboteur_points @ untyped_points
let point_names = List.map fst known_points
let all_point_names = List.map fst all_points

let stage_of_point name =
  match List.assoc_opt name all_points with
  | Some s -> s
  | None -> (
    (* unknown points are still classified by their prefix *)
    match String.index_opt name '.' with
    | Some i -> (
      match String.sub name 0 i with
      | "decode" -> Err.Decode | "lift" -> Err.Lift | "opt" -> Err.Opt
      | "verify" -> Err.Verify | "isel" | "backend" -> Err.Isel
      | "encode" | "rewrite" -> Err.Encode | "install" -> Err.Install
      | "emulate" | "emu" -> Err.Emulate | _ -> Err.Opt)
    | None -> Err.Opt)

(* ------------------------------------------------------------------ *)
(* Plan state                                                          *)
(* ------------------------------------------------------------------ *)

let current : plan ref = ref []
let hit_counts : (string, int) Hashtbl.t = Hashtbl.create 32
let fired_count = ref 0
let sabotaged_count = ref 0
let sabotage_landed_count = ref 0

(** Install [p], replacing any previous plan and resetting counters. *)
let install (p : plan) =
  current := p;
  Hashtbl.reset hit_counts;
  fired_count := 0;
  sabotaged_count := 0;
  sabotage_landed_count := 0

(** Remove the active plan; every point becomes a no-op again. *)
let clear () = install []

(** True while a plan with at least one arm is installed.  Memo caches
    use this to avoid recording (or serving) results produced under
    injection — even after every scheduled fault has fired, since a
    result computed mid-plan may mix clean and corrupted stages.  The
    sentinel heals under an exhausted plan by recomputing without the
    memos; the healed kernel is memoized on the first clean serve after
    {!clear}. *)
let active () = !current <> []

(** Faults injected since the last {!install}. *)
let fired () = !fired_count

(** Saboteur arms that fired since the last {!install}. *)
let sabotaged () = !sabotaged_count

(** Saboteur firings that actually corrupted output (a fired arm is a
    no-op when the stage had nothing corruptible); recorded by the
    corrupting site via {!note_sabotage_landed}. *)
let sabotage_landed () = !sabotage_landed_count

let note_sabotage_landed () = incr sabotage_landed_count

(** Times each point was reached since the last {!install} (armed or
    not — only recorded while a plan is active). *)
let hits () = Hashtbl.fold (fun k v acc -> (k, v) :: acc) hit_counts []

(** [point ?addr name]: no-op without a plan; under a plan, raise the
    typed error of [name]'s stage if the matching arm is due. *)
let point ?addr name =
  match !current with
  | [] -> ()
  | plan -> (
    Hashtbl.replace hit_counts name
      (1 + Option.value ~default:0 (Hashtbl.find_opt hit_counts name));
    match List.find_opt (fun a -> a.a_point = name) plan with
    | None -> ()
    | Some a ->
      if a.a_skip > 0 then a.a_skip <- a.a_skip - 1
      else if a.a_fires <> 0 then begin
        if a.a_fires > 0 then a.a_fires <- a.a_fires - 1;
        incr fired_count;
        Obrew_observe.Flight.(
          emit Fault_injected ~a:(Option.value ~default:0 addr)
            ~subject:name);
        raise
          (Err.Error
             { stage = stage_of_point name; addr;
               detail = "injected: fault at " ^ name })
      end)

(** [point_untyped name]: like {!point} but an armed hit raises a bare
    [Failure] instead of the stage's typed error — exercising the
    pipeline's untyped-exception escape hatch.  A cheap no-op without
    a plan. *)
let point_untyped name =
  match !current with
  | [] -> ()
  | plan -> (
    Hashtbl.replace hit_counts name
      (1 + Option.value ~default:0 (Hashtbl.find_opt hit_counts name));
    match List.find_opt (fun a -> a.a_point = name) plan with
    | None -> ()
    | Some a ->
      if a.a_skip > 0 then a.a_skip <- a.a_skip - 1
      else if a.a_fires <> 0 then begin
        if a.a_fires > 0 then a.a_fires <- a.a_fires - 1;
        incr fired_count;
        Obrew_observe.Flight.(emit Fault_injected ~subject:name);
        failwith ("injected: untyped fault at " ^ name)
      end)

(** [sabotage name]: like {!point} but for saboteur arms — returns
    [true] when the arm is due instead of raising, so the caller can
    corrupt its output in place.  A cheap no-op without a plan. *)
let sabotage name =
  match !current with
  | [] -> false
  | plan -> (
    Hashtbl.replace hit_counts name
      (1 + Option.value ~default:0 (Hashtbl.find_opt hit_counts name));
    match List.find_opt (fun a -> a.a_point = name) plan with
    | None -> false
    | Some a ->
      if a.a_skip > 0 then begin
        a.a_skip <- a.a_skip - 1;
        false
      end
      else if a.a_fires <> 0 then begin
        if a.a_fires > 0 then a.a_fires <- a.a_fires - 1;
        incr fired_count;
        incr sabotaged_count;
        Obrew_observe.Flight.(emit Fault_sabotaged ~subject:name);
        true
      end
      else false)

(* ------------------------------------------------------------------ *)
(* Plan syntax (CLI)                                                   *)
(* ------------------------------------------------------------------ *)

(** Parse ["point[:skip[:fires]],point..."], e.g.
    ["opt.gvn,rewrite.trace:0:1"].  Unknown point names are rejected. *)
let parse (s : string) : (plan, string) result =
  let parse_arm spec =
    match String.split_on_char ':' spec with
    | [ p ] -> Ok (arm p)
    | [ p; sk ] -> (
      match int_of_string_opt sk with
      | Some sk -> Ok (arm ~skip:sk p)
      | None -> Error (Printf.sprintf "bad skip count in %S" spec))
    | [ p; sk; fi ] -> (
      match (int_of_string_opt sk, int_of_string_opt fi) with
      | Some sk, Some fi -> Ok (arm ~skip:sk ~fires:fi p)
      | _ -> Error (Printf.sprintf "bad counts in %S" spec))
    | _ -> Error (Printf.sprintf "malformed arm %S" spec)
  in
  let specs =
    List.filter (fun s -> s <> "") (String.split_on_char ',' s)
  in
  List.fold_left
    (fun acc spec ->
      Result.bind acc (fun arms ->
          Result.bind (parse_arm spec) (fun a ->
              if List.mem_assoc a.a_point all_points then Ok (a :: arms)
              else
                Error
                  (Printf.sprintf "unknown injection point %S (known: %s)"
                     a.a_point (String.concat ", " all_point_names)))))
    (Ok []) specs
  |> Result.map List.rev

let pp_plan (p : plan) =
  String.concat ","
    (List.map
       (fun a -> Printf.sprintf "%s:%d:%d" a.a_point a.a_skip a.a_fires)
       p)

(** The black-box "fault" section. *)
let to_json () =
  let module J = Obrew_json.Json in
  J.Obj
    [ ("active", J.Bool (active ())); ("fired", J.Int (fired ()));
      ("sabotaged", J.Int (sabotaged ()));
      ("plan", J.String (pp_plan !current)) ]

(** Its [--stats] line; empty while no fault has fired. *)
let to_string () =
  if fired () = 0 then ""
  else Printf.sprintf "fault injection: %d fault(s) fired\n" (fired ())
