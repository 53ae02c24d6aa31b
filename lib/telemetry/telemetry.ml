(** Pipeline telemetry: spans, counters and histograms with a
    preallocated ring-buffer event sink and two exporters
    (chrome://tracing JSON and a flat metrics JSON).

    The module is deliberately zero-dependency (stdlib + unix only) so
    it can sit below every other library in the repo — the x86
    substrate, the lifter, the optimizer, the backend, the DBrew
    rewriter and the fault layer all emit through it.

    Cost discipline: telemetry is compiled in but must be cheap when
    off.  Every event-recording entry point starts with a single load
    and branch on [enabled]; when the sink is disabled no closure is
    allocated and no clock is read.  Counters are plain mutable ints
    that always count (an unconditional increment is cheaper than the
    branch would be); they are only *read* at export time.

    Clock: spans are stamped with [now_ns], backed by the injectable
    [Clock] below (default [Unix.gettimeofday]).  The container
    exposes no monotonic-clock binding without adding a dependency, so
    this is a documented substitution — gettimeofday is monotonic in
    practice for the millisecond-scale spans recorded here (same
    substitution DESIGN.md makes for wall-clock benches). *)

module Json = Obrew_json.Json

(* ------------------------------------------------------------------ *)
(* Global switch                                                       *)
(* ------------------------------------------------------------------ *)

let enabled = ref false

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(** The single wall-clock source for the whole pipeline.  Every
    measurement site (telemetry spans, tier compile timing, the DBrew
    rewrite deadline, fallback-chain timing) reads [Clock.now] so a
    test or a forensics replay can substitute a deterministic clock
    and reproduce byte-identical reports. *)
module Clock = struct
  let wall () = Unix.gettimeofday ()

  let source : (unit -> float) ref = ref wall

  (** Seconds since epoch under the installed source. *)
  let now () = !source ()

  let set f = source := f
  let reset () = source := wall

  (** Install a deterministic clock that starts at [t0] and advances
      by [step] seconds per read.  Returns nothing; pair with
      [reset] (or [with_fixed]) in tests. *)
  let fix ?(step = 0.0) t0 =
    let t = ref t0 in
    set (fun () ->
        let v = !t in
        t := v +. step;
        v)

  (** [with_fixed ?step t0 f] runs [f] under a fixed clock and always
      restores the previous source. *)
  let with_fixed ?step t0 f =
    let prev = !source in
    fix ?step t0;
    Fun.protect ~finally:(fun () -> source := prev) f
end

let now_ns () : int = int_of_float (Clock.now () *. 1e9)

(* ------------------------------------------------------------------ *)
(* Ring-buffer event sink                                              *)
(* ------------------------------------------------------------------ *)

(* Events live in parallel preallocated arrays; recording an event is
   a few array stores, no allocation (the name and args strings are
   shared, not copied).  [next] counts events ever recorded; the slot
   for event [n] is [n mod cap], so once full the buffer keeps the
   most recent [cap] events and [dropped ()] reports the overwritten
   prefix. *)

let default_capacity = 65536

type sink = {
  mutable cap : int;
  mutable e_name : string array;
  mutable e_kind : int array;    (* 0 = span, 1 = instant *)
  mutable e_ts : int array;      (* ns *)
  mutable e_dur : int array;     (* ns; 0 for instants *)
  mutable e_args : string array; (* "" = none *)
  mutable next : int;
}

let mk_sink cap = {
  cap;
  e_name = Array.make cap "";
  e_kind = Array.make cap 0;
  e_ts = Array.make cap 0;
  e_dur = Array.make cap 0;
  e_args = Array.make cap "";
  next = 0;
}

let sink = mk_sink default_capacity

let record ~kind ~name ~ts ~dur ~args =
  let s = sink in
  let i = s.next mod s.cap in
  s.e_name.(i) <- name;
  s.e_kind.(i) <- kind;
  s.e_ts.(i) <- ts;
  s.e_dur.(i) <- dur;
  s.e_args.(i) <- args;
  s.next <- s.next + 1

let events_recorded () = sink.next
let dropped () = max 0 (sink.next - sink.cap)
let retained () = min sink.next sink.cap

(* ------------------------------------------------------------------ *)
(* Spans and instants                                                  *)
(* ------------------------------------------------------------------ *)

(* Stack of currently-open span names, innermost first.  Only
   maintained while enabled; read by the black-box forensics report to
   answer "where in the pipeline were we when it died".  Spans that
   unwind via an exception are deliberately left on the stack until
   [reset] — an uncaught exception's report should show the frames it
   tore through. *)
let span_stack : string list ref = ref []

let active_spans () = !span_stack

(** [span name f] times [f ()] and records a complete span.  One
    branch and nothing else when disabled.  The span is recorded even
    if [f] raises (args gains a [!raised] marker), so a trace shows
    where a failing pipeline spent its time. *)
let span ?(args = "") name f =
  if not !enabled then f ()
  else begin
    let t0 = now_ns () in
    span_stack := name :: !span_stack;
    match f () with
    | v ->
      (match !span_stack with _ :: tl -> span_stack := tl | [] -> ());
      record ~kind:0 ~name ~ts:t0 ~dur:(now_ns () - t0) ~args;
      v
    | exception e ->
      let args = if args = "" then "!raised" else args ^ " !raised" in
      record ~kind:0 ~name ~ts:t0 ~dur:(now_ns () - t0) ~args;
      raise e
  end

(** Point-in-time event (fallback decisions, fault firings, cache
    flushes). *)
let instant ?(args = "") name =
  if !enabled then record ~kind:1 ~name ~ts:(now_ns ()) ~dur:0 ~args

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* Counters are registered records so hot paths hold a direct pointer:
   incrementing is one load/add/store, no hashtable, no branch. *)

type counter = { cname : string; mutable n : int }

let counters : counter list ref = ref []

let counter cname =
  match List.find_opt (fun c -> c.cname = cname) !counters with
  | Some c -> c
  | None ->
    let c = { cname; n = 0 } in
    counters := c :: !counters;
    c

let incr_c (c : counter) = c.n <- c.n + 1
let add_c (c : counter) k = c.n <- c.n + k

(* ------------------------------------------------------------------ *)
(* Histograms (HDR-style log-linear buckets)                           *)
(* ------------------------------------------------------------------ *)

(* Layout: values below [sub_buckets] get one bucket each (exact);
   above that, each power-of-two octave is split into [sub_buckets]
   linear sub-buckets, so the relative width of any bucket is at most
   1/16 = 6.25%.  Plain log2 buckets (the PR 3 scheme) had 2x-wide
   buckets, which made percentile extraction useless for tail-latency
   work; the log-linear refinement keeps [bucket_of] allocation-free
   and branch-light while bounding quantile error.

   Indexing: v in [0, 16)                     -> bucket v
             v with msb position b (b >= 4)   -> bucket
               sub_buckets + (b - sub_shift) * sub_buckets + sub
               where sub = (v >> (b - sub_shift)) & (sub_buckets - 1)
   On a 63-bit OCaml int msb <= 61, so 960 buckets cover everything. *)

let sub_buckets = 16
let sub_shift = 4 (* log2 sub_buckets *)
let num_buckets = sub_buckets + (63 - sub_shift) * sub_buckets (* 960 *)

type histogram = {
  hname : string;
  buckets : int array; (* [num_buckets] log-linear counts *)
  mutable hcount : int;
  mutable hsum : int;
}

let histograms : histogram list ref = ref []

let histogram hname =
  match List.find_opt (fun h -> h.hname = hname) !histograms with
  | Some h -> h
  | None ->
    let h =
      { hname; buckets = Array.make num_buckets 0; hcount = 0; hsum = 0 }
    in
    histograms := h :: !histograms;
    h

let bucket_of v =
  if v < sub_buckets then max 0 v
  else begin
    let b = ref 0 and x = ref v in
    while !x > 1 do x := !x lsr 1; incr b done;
    let b = min !b 62 in
    let sub = (v lsr (b - sub_shift)) land (sub_buckets - 1) in
    ((b - sub_shift + 1) * sub_buckets) + sub
  end

(** Smallest value falling into bucket [idx] (inverse of [bucket_of]). *)
let bucket_low idx =
  if idx < sub_buckets then idx
  else
    let b = sub_shift + (idx / sub_buckets) - 1 in
    let sub = idx mod sub_buckets in
    (sub_buckets + sub) lsl (b - sub_shift)

(** Number of distinct values mapping to bucket [idx]. *)
let bucket_width idx =
  if idx < sub_buckets then 1 else 1 lsl ((idx / sub_buckets) - 1)

let observe (h : histogram) v =
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum + v

(** Exact-rank percentile: returns the upper bound of the bucket
    holding the rank-ceil(p/100 * count) smallest observation, so for
    the true rank value [v] the estimate [e] satisfies
    [v <= e <= v + v/16] (exact below 16).  [p] in (0, 100]. *)
let percentile (h : histogram) p =
  if h.hcount = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100. *. float_of_int h.hcount)) in
      max 1 (min h.hcount r)
    in
    let cum = ref 0 and i = ref 0 in
    while !cum < rank && !i < num_buckets do
      cum := !cum + h.buckets.(!i);
      if !cum < rank then incr i
    done;
    let i = min !i (num_buckets - 1) in
    (* the topmost sub-bucket's upper bound is 2^62, which overflows
       the OCaml int; saturate instead of returning a negative bound *)
    let hi = bucket_low i + (bucket_width i - 1) in
    if hi < 0 then max_int else hi
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let reset () =
  sink.next <- 0;
  span_stack := [];
  List.iter (fun c -> c.n <- 0) !counters;
  List.iter
    (fun h ->
      Array.fill h.buckets 0 (Array.length h.buckets) 0;
      h.hcount <- 0;
      h.hsum <- 0)
    !histograms

let enable ?(capacity = default_capacity) () =
  if capacity <> sink.cap then begin
    let f = mk_sink capacity in
    sink.cap <- f.cap;
    sink.e_name <- f.e_name;
    sink.e_kind <- f.e_kind;
    sink.e_ts <- f.e_ts;
    sink.e_dur <- f.e_dur;
    sink.e_args <- f.e_args
  end;
  reset ();
  enabled := true

let disable () = enabled := false

(** Iterate retained events whose global index is >= [start]
    (oldest-first).  Lets a caller take a watermark with
    [events_recorded ()] and later aggregate only the events recorded
    since — bench uses this for per-stage latency percentiles. *)
let iter_events_from start f =
  let s = sink in
  let lo = max start (s.next - retained ()) in
  for k = lo to s.next - 1 do
    let i = k mod s.cap in
    f ~name:s.e_name.(i) ~kind:s.e_kind.(i) ~ts:s.e_ts.(i)
      ~dur:s.e_dur.(i) ~args:s.e_args.(i)
  done

(* iterate retained events oldest-first *)
let iter_events f = iter_events_from 0 f

(* ------------------------------------------------------------------ *)
(* Exporter 1: chrome://tracing                                        *)
(* ------------------------------------------------------------------ *)

(** Trace-event JSON loadable by chrome://tracing / Perfetto: complete
    spans as ph "X" (ts/dur in microseconds), instants as ph "i". *)
let export_chrome_trace () =
  let us ns = Json.fixed 3 (float_of_int ns /. 1e3) in
  let evs = ref [] in
  iter_events (fun ~name ~kind ~ts ~dur ~args ->
      let phase =
        if kind = 0 then [ ("ph", Json.String "X"); ("dur", us dur) ]
        else [ ("ph", Json.String "i"); ("s", Json.String "g") ]
      in
      let args =
        if args = "" then []
        else [ ("args", Json.Obj [ ("detail", Json.String args) ]) ]
      in
      evs :=
        Json.Obj
          ([ ("name", Json.String name); ("pid", Json.Int 1);
             ("tid", Json.Int 1); ("ts", us ts) ]
           @ phase @ args)
        :: !evs);
  Json.Obj
    [ ("traceEvents", Json.List (List.rev !evs));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj [ ("dropped_events", Json.Int (dropped ())) ]) ]

(* ------------------------------------------------------------------ *)
(* Exporter 2: flat metrics JSON                                       *)
(* ------------------------------------------------------------------ *)

(* v2: histogram buckets became log-linear ([low, count] pairs where
   low is the bucket's smallest value rather than a power of two) and
   histogram summaries gained exact-rank p50/p90/p99/p999 fields.
   Counters, spans and the envelope are unchanged. *)
let metrics_schema_version = 2

(** Flat metrics JSON: all counters, histogram summaries with
    percentiles, and per-name span aggregates (count / total / max
    ns) computed over the retained events. *)
let export_metrics () =
  let histogram h =
    let buckets = ref [] in
    for b = num_buckets - 1 downto 0 do
      if h.buckets.(b) > 0 then
        buckets :=
          Json.List [ Json.Int (bucket_low b); Json.Int h.buckets.(b) ]
          :: !buckets
    done;
    Json.Obj
      [ ("count", Json.Int h.hcount); ("sum", Json.Int h.hsum);
        ("p50", Json.Int (percentile h 50.));
        ("p90", Json.Int (percentile h 90.));
        ("p99", Json.Int (percentile h 99.));
        ("p999", Json.Int (percentile h 99.9));
        ("buckets", Json.List !buckets) ]
  in
  (* span aggregates from the retained ring *)
  let tbl : (string, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  iter_events (fun ~name ~kind ~ts:_ ~dur ~args:_ ->
      if kind = 0 then
        let c, tot, mx =
          Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl name)
        in
        Hashtbl.replace tbl name (c + 1, tot + dur, max mx dur));
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  Json.Obj
    [ ("schema_version", Json.Int metrics_schema_version);
      ("events_recorded", Json.Int (events_recorded ()));
      ("events_dropped", Json.Int (dropped ()));
      ("counters",
       Json.ints (sorted (List.map (fun c -> (c.cname, c.n)) !counters)));
      ("histograms",
       Json.Obj
         (sorted (List.map (fun h -> (h.hname, histogram h)) !histograms)));
      ("spans",
       Json.Obj
         (sorted
            (Hashtbl.fold
               (fun name (c, tot, mx) acc ->
                 ( name,
                   Json.ints [ ("count", c); ("total_ns", tot); ("max_ns", mx) ]
                 )
                 :: acc)
               tbl []))) ]
