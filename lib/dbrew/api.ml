(** The DBrew user API, mirroring Fig. 2/3 of the paper:

    {[
      let r = Api.dbrew_new img func in
      Api.dbrew_set_par r 1 42L;
      Api.dbrew_set_mem r start stop;
      let newfunc = Api.dbrew_rewrite r in
      (* call newfunc instead of func *)
    ]}

    Rewriting may fail on unsupported constructs; the default error
    handler simply returns the original function, ensuring correctness
    (Sec. II).  A custom handler can be installed instead. *)

open Obrew_x86
open Obrew_fault

type t = {
  img : Image.t;
  entry : int;
  cfg : Rewriter.config;
  mutable error_handler : (Err.t -> int) option;
  mutable last_error : Err.t option;
  mutable emitted_items : Insn.item list; (* for inspection/dumps *)
}

(** Create a rewriter for the function at [entry]. *)
let dbrew_new (img : Image.t) (entry : int) : t =
  { img; entry; cfg = Rewriter.default_config (); error_handler = None;
    last_error = None; emitted_items = [] }

(** Fix parameter [i] (0-based) to [v] — Fig. 3 [dbrew_setpar]. *)
let dbrew_set_par r i v =
  r.cfg.Rewriter.params <- (i, v) :: List.remove_assoc i r.cfg.Rewriter.params

(** Declare [lo, hi) as fixed memory — Fig. 3 [dbrew_setmem]: values
    read from this range are assumed constant and folded. *)
let dbrew_set_mem r lo hi =
  r.cfg.Rewriter.mem_ranges <- (lo, hi) :: r.cfg.Rewriter.mem_ranges

(** Bound for call inlining depth. *)
let dbrew_set_inline_depth r d = r.cfg.Rewriter.inline_depth <- d

(** Custom error handler: receives the typed failure, returns the
    function address to use instead. *)
let dbrew_set_error_handler r h = r.error_handler <- Some h

(* ------------------------------------------------------------------ *)
(* Specialization memo cache                                           *)
(* ------------------------------------------------------------------ *)

(* In the serving scenario the same specialization request arrives over
   and over (same function, same fixed parameters, same fixed-memory
   contents); re-running the rewriter each time is pure waste.  The
   memo cache keys on everything the rewrite depends on — the image,
   the entry, the rewriter configuration, the bytes of the original
   function and the bytes of every fixed memory range — and returns the
   previously installed code.  Because the key includes content
   digests, installing fresh code over the original entry or mutating a
   fixed range changes the key and naturally misses. *)

let memo_tbl : (string, int * Insn.item list) Hashtbl.t = Hashtbl.create 64

let memo_hits = ref 0
let memo_misses = ref 0

(** (hits, misses) of the rewrite memo cache since start/reset. *)
let memo_stats () = (!memo_hits, !memo_misses)

let memo_reset () =
  Hashtbl.reset memo_tbl;
  memo_hits := 0;
  memo_misses := 0

(* digest of the original function's code: decode until the first ret
   (bounded), then hash the raw bytes of that extent *)
let code_digest mem entry =
  let read = Mem.read_u8 mem in
  let rec extent a n =
    if n >= 4096 then a - entry
    else
      match Decode.decode ~read a with
      | Insn.Ret, len -> a + len - entry
      | _, len -> extent (a + len) (n + 1)
      | exception _ -> a - entry
  in
  Digest.string (Mem.read_bytes mem entry (max (extent entry 0) 1))

let memo_key (r : t) =
  let mem = r.img.Image.cpu.Cpu.mem in
  let ranges = List.sort compare r.cfg.Rewriter.mem_ranges in
  let range_bytes =
    List.map (fun (lo, hi) -> Mem.read_bytes mem lo (max (hi - lo) 0)) ranges
  in
  Digest.string
    (Marshal.to_string
       ( r.img.Image.uid, r.entry,
         List.sort compare r.cfg.Rewriter.params,
         ranges, range_bytes,
         r.cfg.Rewriter.inline_depth, code_digest mem r.entry )
       [ Marshal.No_sharing ])

(** Rewrite; returns the new function's address (a drop-in replacement
    with the same signature).  On failure the error handler decides;
    the default returns the original function.  Successful rewrites are
    memoized: a repeated request with the same entry, configuration and
    fixed-parameter/memory contents returns the already-installed code
    without re-running the rewriter ([memo:false] forces a fresh
    rewrite, e.g. to measure compile time). *)
let dbrew_rewrite ?(memo = true) (r : t) : int =
  (* While fault injection is live the memo must stay out of the way:
     a hit would bypass the injection points, and a result produced
     under injection must never be remembered as a success. *)
  let memo = memo && not (Fault.active ()) in
  let key = if memo then Some (memo_key r) else None in
  (* a memoized address whose installed content was quarantined since
     must not be served again; drop it and rewrite from scratch (the
     install path re-checks the content against the blacklist) *)
  let served =
    match Option.bind key (Hashtbl.find_opt memo_tbl) with
    | Some (addr, _) as served -> (
      match Image.digest_of_addr r.img addr with
      | Some d when Obrew_fault.Quarantine.mem d ->
        (match key with Some k -> Hashtbl.remove memo_tbl k | None -> ());
        None
      | _ -> served)
    | None -> None
  in
  match served with
  | Some (addr, items) ->
    incr memo_hits;
    r.last_error <- None;
    r.emitted_items <- items;
    addr
  | None -> (
    if memo then incr memo_misses;
    match
      let items =
        Obrew_telemetry.Telemetry.span "dbrew.rewrite" (fun () ->
            Rewriter.rewrite ~cfg:r.cfg ~mem:r.img.Image.cpu.Cpu.mem
              ~entry:r.entry)
      in
      let items = Sabotage.maybe_corrupt "sabotage.rewrite.item" items in
      (items, Image.install_code ~dedup:true r.img items)
    with
    | items, addr ->
      r.last_error <- None;
      r.emitted_items <- items;
      (match key with
       | Some k -> Hashtbl.replace memo_tbl k (addr, items)
       | None -> ());
      Obrew_observe.Flight.(
        emit Dbrew_rewrite ~a:r.entry ~b:addr
          ~detail:(Printf.sprintf "%d items" (List.length items)));
      addr
    | exception Err.Error e -> (
      r.last_error <- Some e;
      match r.error_handler with
      | Some h -> h e
      | None -> r.entry (* default: fall back to the original *)))

(** The rewritten code of the last successful {!dbrew_rewrite}, for
    dumps (Fig. 8). *)
let dbrew_last_code r = r.emitted_items
