(** Provenance: guest-address attribution through the whole rewriting
    pipeline.

    The paper explains its results by reading the generated code
    (Fig. 5/6/8) — this module mechanizes that story.  A compact
    provenance id (guest address + lift ordinal) is stamped on every IR
    instruction at lift time and preserved (or accounted for) by every
    optimizer pass and by instruction selection, so that

    - every surviving IR instruction knows which guest instruction it
      came from,
    - every transformation that deletes/merges/hoists/unrolls/
      specializes an instruction leaves a {e remark}, and
    - every emitted host byte range maps back to a guest address.

    A cycle-attribution profiler rides on the same ids: both execution
    engines record per-address simulated cycles and execution counts,
    plus per-superblock counters.

    Everything is one-branch-when-disabled, mirroring the telemetry
    gate of {!Obrew_telemetry.Telemetry}: with [enabled = false] the
    only cost to the pipeline is stamping an integer field and testing
    one [bool ref] per potential record. *)

module Tel = Obrew_telemetry.Telemetry
module Json = Obrew_json.Json

(* ------------------------------------------------------------------ *)
(* Compact ids                                                         *)
(* ------------------------------------------------------------------ *)

(** A provenance id: guest address in the high bits, lift ordinal (the
    index of the guest instruction in lift order, disambiguating
    re-lifted or block-split addresses) in the low 16.  [0] is "no
    provenance" — guest code lives at {!Obrew_x86.Image.code_base} and
    above, so a real id is never 0. *)
type t = int

let none : t = 0
let make ~addr ~ord : t = (addr lsl 16) lor (ord land 0xffff)
let addr (p : t) = p lsr 16
let ord (p : t) = p land 0xffff
let is_some (p : t) = p <> 0

let to_string (p : t) =
  if p = none then "-" else Printf.sprintf "0x%x#%d" (addr p) (ord p)

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)
(* ------------------------------------------------------------------ *)

(** Master switch for remark collection, the profiler and the host
    map.  Id stamping itself is unconditional (it is just an [int]
    field). *)
let enabled = ref false

(* ------------------------------------------------------------------ *)
(* Optimizer remarks                                                   *)
(* ------------------------------------------------------------------ *)

type action = Deleted | Merged | Hoisted | Unrolled | Specialized

let action_name = function
  | Deleted -> "deleted"
  | Merged -> "merged"
  | Hoisted -> "hoisted"
  | Unrolled -> "unrolled"
  | Specialized -> "specialized"

type remark = { pass : string; action : action; prov : t; detail : string }

let dummy_remark = { pass = ""; action = Deleted; prov = none; detail = "" }

let rbuf = ref (Array.make 256 dummy_remark)
let rcount = ref 0

let c_remarks = Tel.counter "prov.remarks"
let c_insns = Tel.counter "prov.profiled_insns"
let c_blocks = Tel.counter "prov.profiled_blocks"
let c_hosts = Tel.counter "prov.host_ranges"

let record ~pass ~action ~prov ~detail =
  if !enabled then begin
    if !rcount = Array.length !rbuf then begin
      let bigger = Array.make (2 * !rcount) dummy_remark in
      Array.blit !rbuf 0 bigger 0 !rcount;
      rbuf := bigger
    end;
    !rbuf.(!rcount) <- { pass; action; prov; detail };
    incr rcount;
    Tel.incr_c c_remarks
  end

(** Rollback support for the verifier-gated pipeline: {!mark} before a
    pass, {!truncate} back to it when the pass is dropped, so a rolled
    back pass leaves no remarks. *)
let mark () = !rcount
let truncate n = if n >= 0 && n < !rcount then rcount := n

let remarks_recorded () = !rcount

let iter_remarks f =
  for i = 0 to !rcount - 1 do
    f !rbuf.(i)
  done

(* ------------------------------------------------------------------ *)
(* Cycle-attribution profiler                                          *)
(* ------------------------------------------------------------------ *)

type pcell = { mutable p_cycles : int; mutable p_execs : int }

(* per executing address (guest code runs in place; emitted code is
   attributed back through the host map at export time) *)
let insn_prof : (int, pcell) Hashtbl.t = Hashtbl.create 1024

(* per superblock entry: one record per block execution *)
let block_prof : (int, pcell) Hashtbl.t = Hashtbl.create 128

let cell tbl k =
  match Hashtbl.find_opt tbl k with
  | Some c -> c
  | None ->
    let c = { p_cycles = 0; p_execs = 0 } in
    Hashtbl.replace tbl k c;
    c

(** Record one executed instruction at [addr] costing [cycles].
    Callers gate on {!enabled}. *)
let record_insn addr cycles =
  let c = cell insn_prof addr in
  c.p_cycles <- c.p_cycles + cycles;
  c.p_execs <- c.p_execs + 1;
  Tel.incr_c c_insns

(** Record one superblock execution. *)
let record_block entry ~cycles ~insns =
  let c = cell block_prof entry in
  c.p_cycles <- c.p_cycles + cycles;
  c.p_execs <- c.p_execs + 1;
  ignore insns;
  Tel.incr_c c_blocks

let iter_insn_profile f =
  Hashtbl.iter (fun a c -> f ~addr:a ~cycles:c.p_cycles ~execs:c.p_execs)
    insn_prof

let iter_block_profile f =
  Hashtbl.iter (fun a c -> f ~entry:a ~cycles:c.p_cycles ~execs:c.p_execs)
    block_prof

(** (total cycles, total executions) over all profiled addresses. *)
let profile_totals () =
  Hashtbl.fold
    (fun _ c (cy, ex) -> (cy + c.p_cycles, ex + c.p_execs))
    insn_prof (0, 0)

(* ------------------------------------------------------------------ *)
(* Host map                                                            *)
(* ------------------------------------------------------------------ *)

(** Per emitted function: the host byte ranges it occupies, each with
    the provenance id of the IR instruction it was selected from
    ([none] for prologue/epilogue/glue).  Re-installing a function
    replaces its map. *)
let host_maps : (string, (int * int * t) array) Hashtbl.t = Hashtbl.create 8

let set_host_map ~fn ranges =
  if !enabled then begin
    let a = Array.of_list ranges in
    Hashtbl.replace host_maps fn a;
    Tel.add_c c_hosts (Array.length a)
  end

let host_map fn = Hashtbl.find_opt host_maps fn

let iter_host_maps f = Hashtbl.iter f host_maps

(** Map a host address back to the provenance id of the instruction
    emitted there, searching all installed functions. *)
let guest_of_host a =
  let found = ref none in
  Hashtbl.iter
    (fun _ ranges ->
      if !found = none then
        Array.iter
          (fun (lo, len, p) ->
            if a >= lo && a < lo + len && p <> none then found := p)
          ranges)
    host_maps;
  if !found = none then None else Some !found

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let enable () = enabled := true
let disable () = enabled := false

let reset () =
  rcount := 0;
  Hashtbl.reset insn_prof;
  Hashtbl.reset block_prof;
  Hashtbl.reset host_maps

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let remarks_schema_version = 1
let profile_schema_version = 1

(** Flat JSON of every optimizer remark, lift order preserved. *)
let export_remarks () =
  let rs = ref [] in
  iter_remarks (fun r ->
      rs :=
        Json.Obj
          [ ("pass", Json.String r.pass);
            ("action", Json.String (action_name r.action));
            ("guest_addr", Json.Int (addr r.prov));
            ("ord", Json.Int (ord r.prov));
            ("detail", Json.String r.detail) ]
        :: !rs);
  Json.Obj
    [ ("schema_version", Json.Int remarks_schema_version);
      ("remarks", Json.List (List.rev !rs)) ]

(* (address, cycles, execs) rows, most cycles first *)
let by_cycles iter =
  let rows = ref [] in
  iter (fun a cy ex -> rows := (a, cy, ex) :: !rows);
  List.sort (fun (_, c1, _) (_, c2, _) -> compare c2 c1) !rows

let insn_rows () =
  by_cycles (fun f ->
      iter_insn_profile (fun ~addr ~cycles ~execs -> f addr cycles execs))

let block_rows () =
  by_cycles (fun f ->
      iter_block_profile (fun ~entry ~cycles ~execs -> f entry cycles execs))

let take n l = List.filteri (fun i _ -> i < n) l

(** Profile JSON: top-[top] hot addresses by simulated cycles with
    their cycle share, plus the per-superblock counters.  Addresses
    inside an emitted function's host ranges also carry the guest
    address they originate from. *)
let export_profile ?(top = 20) () =
  let total_cycles, total_execs = profile_totals () in
  let row (a, cy, ex) =
    let share =
      if total_cycles = 0 then 0.0
      else float_of_int cy /. float_of_int total_cycles
    in
    Json.Obj
      ([ ("addr", Json.Int a); ("cycles", Json.Int cy);
         ("execs", Json.Int ex); ("share", Json.fixed 6 share) ]
       @
       match guest_of_host a with
       | Some p -> [ ("guest_addr", Json.Int (addr p)) ]
       | None -> [])
  in
  let block (a, cy, ex) =
    Json.Obj
      [ ("entry", Json.Int a); ("cycles", Json.Int cy);
        ("execs", Json.Int ex) ]
  in
  Json.Obj
    [ ("schema_version", Json.Int profile_schema_version);
      ("total_cycles", Json.Int total_cycles);
      ("total_execs", Json.Int total_execs);
      ("rows", Json.List (List.map row (take top (insn_rows ()))));
      ("blocks", Json.List (List.map block (take top (block_rows ())))) ]

(** Human-readable top-[top] table (the [--profile] output). *)
let format_profile ?(top = 20) () =
  let rows = insn_rows () in
  let total, _ = profile_totals () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "profile: %d simulated cycles over %d hot addresses\n"
       total (List.length rows));
  Buffer.add_string buf "    address       cycles      execs  share\n";
  List.iter
    (fun (a, cy, ex) ->
      let share =
        if total = 0 then 0.0
        else 100.0 *. float_of_int cy /. float_of_int total
      in
      let origin =
        match guest_of_host a with
        | Some p -> Printf.sprintf "  <- guest 0x%x" (addr p)
        | None -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  0x%08x %12d %10d %5.1f%%%s\n" a cy ex share origin))
    (take top rows);
  Buffer.contents buf
