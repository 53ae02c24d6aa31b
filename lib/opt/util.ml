(** Shared helpers for IR passes. *)

open Obrew_ir
open Ins

(** Map from value id to its defining instruction. *)
let def_table (f : func) : instr Idtbl.t =
  let t = Idtbl.for_values f in
  List.iter
    (fun b -> List.iter (fun i -> Idtbl.replace t i.id i) b.instrs)
    f.blocks;
  t

(** [List.filter_map g l], except that it returns [l] itself when [g]
    returns every element physically unchanged, so a pass that rewrites
    nothing allocates nothing.  [g] sees the elements in order. *)
let rec filter_map_shared g l =
  match l with
  | [] -> l
  | x :: tl -> (
    let y = g x in
    let tl' = filter_map_shared g tl in
    match y with
    | Some y when y == x && tl' == tl -> l
    | Some y -> y :: tl'
    | None -> tl')

(** Follow substitution chains to a fixpoint. *)
let rec resolve (map : value Idtbl.t) (v : value) : value =
  match v with
  | V id -> (
    match Idtbl.find_opt map id with
    | Some v' when v' <> v -> resolve map v'
    | _ -> v)
  | CVec (t, vs) -> CVec (t, List.map (resolve map) vs)
  | _ -> v

(** Does [v] name a value that [map] substitutes? *)
let rec mentions (map : value Idtbl.t) (v : value) : bool =
  match v with
  | V id -> Idtbl.mem map id
  | CVec (_, vs) -> List.exists (mentions map) vs
  | _ -> false

(** Apply a substitution map over every operand in the function.  Only
    the instructions and terminators that use a substituted value are
    rebuilt; [on_rebuilt] sees each rebuilt instruction. *)
let apply_subst ?(on_rebuilt = ignore) (f : func) (map : value Idtbl.t) =
  if not (Idtbl.is_empty map) then begin
    let mentioned = mentions map in
    let uses i = exists_operand mentioned i.op in
    List.iter
      (fun b ->
        if List.exists uses b.instrs then
          b.instrs <-
            List.map
              (fun i ->
                if uses i then begin
                  let i = { i with op = map_operands (resolve map) i.op } in
                  on_rebuilt i;
                  i
                end
                else i)
              b.instrs;
        if List.exists mentioned (term_operands b.term) then
          b.term <- map_term_operands (resolve map) b.term)
      f.blocks
  end

(** Number of uses of each value id (operands + terminators). *)
let use_counts (f : func) : int Idtbl.t =
  let t = Idtbl.for_values f in
  let rec count = function
    | V id ->
      Idtbl.replace t id (1 + Option.value ~default:0 (Idtbl.find_opt t id))
    | CVec (_, vs) -> List.iter count vs
    | _ -> ()
  in
  List.iter
    (fun b ->
      List.iter (fun i -> List.iter count (operands i.op)) b.instrs;
      List.iter count (term_operands b.term))
    f.blocks;
  t

(** Type environment for {!Verify.type_of_value}. *)
let type_env (f : func) : ty Idtbl.t =
  let t = Idtbl.for_values f in
  List.iter2 (fun ty id -> Idtbl.replace t id ty) f.sg.args f.params;
  List.iter
    (fun b ->
      List.iter
        (fun i -> match i.ty with Some ty -> Idtbl.replace t i.id ty
                                | None -> ())
        b.instrs)
    f.blocks;
  t

(** Remap all value ids and block ids in a function by [fid]/[fblk]
    (used by inlining and unrolling when splicing blocks). *)
let remap_instr ~fid ~fblk (i : instr) : instr =
  let rec rv = function
    | V id -> V (fid id)
    | CVec (t, vs) -> CVec (t, List.map rv vs)
    | v -> v
  in
  let op =
    match i.op with
    | Phi (t, ins) -> Phi (t, List.map (fun (b, v) -> (fblk b, rv v)) ins)
    | op -> map_operands rv op
  in
  { id = fid i.id; ty = i.ty; op; prov = i.prov }

let remap_term ~fid ~fblk (t : terminator) : terminator =
  let rec rv = function
    | V id -> V (fid id)
    | CVec (ty, vs) -> CVec (ty, List.map rv vs)
    | v -> v
  in
  match t with
  | Ret v -> Ret (Option.map rv v)
  | Br b -> Br (fblk b)
  | CondBr (c, a, b) -> CondBr (rv c, fblk a, fblk b)
  | Unreachable -> Unreachable

(** Renumber [f]'s value ids densely, keeping their order: the [k]-th
    smallest id in use (as a parameter, a definition or an operand)
    becomes [k], and [next_id] becomes the number of ids in use.  Every
    table sized by [next_id] after it is as long as the live function.
    {!Builder.create} numbers the parameters [0..n-1], so they keep
    their ids.  A function naming an id outside [0, next_id) is left as
    it is, for {!Verify.check} to report. *)
let compact (f : func) : unit =
  let n = f.next_id in
  let rank = Array.make n (-1) in
  let exception Out_of_range in
  let mark id =
    if id < 0 || id >= n then raise Out_of_range else rank.(id) <- 0
  in
  let rec mark_value = function
    | V id -> mark id
    | CVec (_, vs) -> List.iter mark_value vs
    | _ -> ()
  in
  let mark_operand v = mark_value v; false in
  match
    List.iter mark f.params;
    List.iter
      (fun b ->
        List.iter
          (fun i ->
            mark i.id;
            ignore (exists_operand mark_operand i.op))
          b.instrs;
        List.iter mark_value (term_operands b.term))
      f.blocks
  with
  | exception Out_of_range -> ()
  | () ->
    let k = ref 0 in
    for id = 0 to n - 1 do
      if rank.(id) = 0 then begin
        rank.(id) <- !k;
        incr k
      end
    done;
    List.iter (fun p -> assert (rank.(p) = p)) f.params;
    if !k < n then begin
      let fid id = rank.(id) and fblk b = b in
      List.iter
        (fun b ->
          b.instrs <- List.map (remap_instr ~fid ~fblk) b.instrs;
          b.term <- remap_term ~fid ~fblk b.term)
        f.blocks;
      f.next_id <- !k
    end
