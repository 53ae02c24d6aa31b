(* Per-layer self time from the program's telemetry spans.

   Spans carry no parent link, only a start and a duration, so nesting
   is rebuilt from interval containment: a span's self time is its
   duration minus the durations of its direct children.  Each span name
   maps to one ledger row; rows sum to the duration of the outermost
   span, which is the benchmark's own [bench.request] span. *)

module Tel = Obrew_telemetry.Telemetry

let starts_with p s =
  String.length s >= String.length p
  && String.sub s 0 (String.length p) = p

(* The self time of the [transform.*] spans: transform time spent
   outside every instrumented stage. *)
let transform_row = "core.unattributed_ms"

(* [None]: the span is transparent and its time stays with the span
   that encloses it ([decode.run] is shared by the lifter, the engine
   and the rewriter, so it belongs to whichever called it). *)
let row_of = function
  | "decode.run" -> None
  | "bench.request" -> Some "bench.unattributed_ms"
  | "bench.run" | "emulate.run" | "emulate.interp" -> Some "x86.run_ms"
  | "sb.translate" -> Some "x86.translate_ms"
  | "decode.discover" -> Some "lifter.decode_ms"
  | "lift" -> Some "lifter.lift_ms"
  | "backend.isel" -> Some "backend.isel_ms"
  | "backend.regalloc" -> Some "backend.regalloc_ms"
  | "jit.emit" -> Some "backend.emit_ms"
  | "bench.transform" -> Some "core.chain_ms"
  | "bench.register" | "bench.poll" -> Some "tier.poll_ms"
  | "tier.compile" -> Some "tier.compile_ms"
  | "sentinel.check" -> Some "sentinel.check_ms"
  | n when starts_with "transform." n -> Some transform_row
  | n when starts_with "opt." n -> Some (n ^ "_ms")
  | n -> Some ("other." ^ n ^ "_ms")

type span = { name : string; row : string; ts : int; dur : int }

type t = {
  self_ns : (string, int) Hashtbl.t;   (* row -> summed self time *)
  incl_ns : (string, int) Hashtbl.t;   (* row -> summed span time *)
  mutable requests : int;
  mutable mark : int;       (* sink watermark of the last drain *)
  mutable dropped : int;    (* events lost to ring overflow *)
}

let create () =
  { self_ns = Hashtbl.create 32; incl_ns = Hashtbl.create 32; requests = 0;
    mark = 0; dropped = 0 }

let bump tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Ring capacity: a single request never records this many events, and
   the sink is emptied after every request, so nothing is dropped. *)
let capacity = 1 lsl 18

(* Take the events recorded since the last drain.  Every [drain] call
   empties the sink once it is half full, so a long run never wraps
   the ring; what a single request overflows is counted in [dropped]. *)
let take t =
  let spans = ref [] in
  Tel.iter_events_from t.mark (fun ~name ~kind ~ts ~dur ~args:_ ->
      if kind = 0 then
        match row_of name with
        | Some row -> spans := { name; row; ts; dur } :: !spans
        | None -> ());
  if Tel.events_recorded () > capacity / 2 then begin
    t.dropped <- t.dropped + Tel.dropped ();
    Tel.reset ()
  end;
  t.mark <- Tel.events_recorded ();
  !spans

(* Discard whatever was recorded outside a request (builds, checks). *)
let skip t = ignore (take t)

(* Attribute the spans of one request; [on_span] sees every span name
   (the caller tallies exact per-round counts with it). *)
let drain ?(on_span = fun _ -> ()) t =
  let spans =
    List.sort (fun a b -> compare (a.ts, -a.dur) (b.ts, -b.dur)) (take t)
  in
  let close (s, kids) = bump t.self_ns s.row (s.dur - !kids) in
  let stack = ref [] in
  List.iter
    (fun s ->
      on_span s.name;
      bump t.incl_ns s.row s.dur;
      let rec pop () =
        match !stack with
        | ((p, _) as top) :: tl when s.ts >= p.ts + p.dur ->
          close top;
          stack := tl;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with (_, kids) :: _ -> kids := !kids + s.dur | [] -> ());
      stack := (s, ref 0) :: !stack)
    spans;
  List.iter close !stack;
  t.requests <- t.requests + 1

let per_request t tbl row =
  if t.requests = 0 then 0.0
  else
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl row))
    /. 1e6 /. float_of_int t.requests

(* Mean self milliseconds per request of [row]. *)
let ms_per_request t row = per_request t t.self_ns row

(* Mean milliseconds per request inside [row]'s spans, children
   included. *)
let inclusive_ms_per_request t row = per_request t t.incl_ns row

let rows t =
  Hashtbl.fold (fun row _ acc -> (row, ms_per_request t row) :: acc)
    t.self_ns []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* The table: every row's self time per request and its share of the
   request total; the residual rows are named, not folded away. *)
let print t ~workload =
  let rows = rows t in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 rows in
  Printf.printf "\nper-layer ledger: %s (%d traced requests, %d dropped events)\n"
    workload t.requests t.dropped;
  Printf.printf "  %-28s %14s %8s\n" "layer row" "self ms/req" "share";
  List.iter
    (fun (row, v) ->
      Printf.printf "  %-28s %14.6f %7.2f%%\n" row v
        (if total > 0.0 then 100.0 *. v /. total else 0.0))
    rows;
  Printf.printf "  %-28s %14.6f %7.2f%%\n" "= request total" total 100.0
