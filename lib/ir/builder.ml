(** Imperative construction of IR functions.

    Inserting an instruction costs O(1): the current block's newest
    instructions are kept newest-first in [tail].  Blocks are looked up
    through an index of the blocks the builder created.  [position],
    [set_term], [insert_phi], [block] and [func] flush the tail into its
    block, so a function obtained from [func] (or a block from [block])
    is complete up to that point. *)

open Ins

type t = {
  func : func;
  index : (int, block) Hashtbl.t; (* bid -> every block created here *)
  mutable cur : block;
  mutable tail : instr list;
  (* instructions inserted into [cur] since the last flush, newest
     first *)
  mutable cur_prov : int;
  (* provenance id stamped on inserted instructions; the lifter points
     it at the guest instruction currently being lifted *)
}

(** Create a function with fresh parameter value ids 0..n-1 and an
    empty entry block (bid 0), positioned at the entry. *)
let create ~name ~(sg : signature) : t =
  let params = List.mapi (fun i _ -> i) sg.args in
  let entry = { bid = 0; instrs = []; term = Unreachable } in
  let f =
    { fname = name; sg; params; blocks = [ entry ];
      next_id = List.length sg.args; always_inline = false }
  in
  let index = Hashtbl.create 16 in
  Hashtbl.replace index 0 entry;
  { func = f; index; cur = entry; tail = []; cur_prov = 0 }

let flush b =
  if b.tail <> [] then begin
    b.cur.instrs <- b.cur.instrs @ List.rev b.tail;
    b.tail <- []
  end

let func b =
  flush b;
  b.func

(** Parameter value ids, in order; unlike [func], never flushes. *)
let params b = b.func.params

(** Provenance id attached to instructions inserted from now on. *)
let set_prov b p = b.cur_prov <- p

let cur_prov b = b.cur_prov

(** Reserve [n] consecutive value ids; returns the first. *)
let reserve_ids b n =
  let id = b.func.next_id in
  b.func.next_id <- id + n;
  id

let fresh_id b = reserve_ids b 1

(** The block [bid], complete up to now. *)
let block b bid =
  flush b;
  match Hashtbl.find_opt b.index bid with
  | Some bl -> bl
  | None ->
    invalid_arg (Printf.sprintf "%s: no block %d" b.func.fname bid)

(** Allocate a new empty block; does not change the insertion point. *)
let new_block b : int =
  let bid = Hashtbl.length b.index in
  let bl = { bid; instrs = []; term = Unreachable } in
  Hashtbl.replace b.index bid bl;
  b.func.blocks <- b.func.blocks @ [ bl ];
  bid

let position b bid = b.cur <- block b bid

let current_bid b = b.cur.bid

let insert b ~ty op : value =
  let id = fresh_id b in
  b.tail <- { id; ty; op; prov = b.cur_prov } :: b.tail;
  V id

(** Insert a phi at the *front* of the given block (phis must precede
    ordinary instructions). *)
let insert_phi b bid ~ty incoming : value =
  let bl = block b bid in
  let id = fresh_id b in
  bl.instrs <-
    { id; ty = Some ty; op = Phi (ty, incoming); prov = b.cur_prov }
    :: bl.instrs;
  V id

let set_term b term =
  flush b;
  b.cur.term <- term

(* convenience wrappers *)

let bin b op ty x y = insert b ~ty:(Some ty) (Bin (op, ty, x, y))
let fbin b op ty x y = insert b ~ty:(Some ty) (FBin (op, ty, x, y))
let icmp b p ty x y = insert b ~ty:(Some I1) (Icmp (p, ty, x, y))
let fcmp b p ty x y = insert b ~ty:(Some I1) (Fcmp (p, ty, x, y))
let select b ty c x y = insert b ~ty:(Some ty) (Select (ty, c, x, y))
let cast b k ~src_ty v ~dst_ty =
  insert b ~ty:(Some dst_ty) (Cast (k, src_ty, v, dst_ty))
let load b ty ?(align = 1) p = insert b ~ty:(Some ty) (Load (ty, p, align))
let store b ty ?(align = 1) v p =
  ignore (insert b ~ty:None (Store (ty, v, p, align)))
let gep b base elts = insert b ~ty:(Some (Ptr 0)) (Gep (base, elts))
let call b name sg args =
  insert b ~ty:sg.ret (CallDirect (name, sg, args))
let call_ptr b f sg args = insert b ~ty:sg.ret (CallPtr (f, sg, args))
let alloca b size align = insert b ~ty:(Some (Ptr 0)) (Alloca (size, align))
let extractelt b vty v lane =
  let lane_ty = match vty with Vec (_, t) -> t | _ -> invalid_arg "extractelt" in
  insert b ~ty:(Some lane_ty) (ExtractElt (vty, v, lane))
let insertelt b vty v s lane =
  insert b ~ty:(Some vty) (InsertElt (vty, v, s, lane))
let shuffle b rty a bb mask = insert b ~ty:(Some rty) (Shuffle (rty, a, bb, mask))
let intr b i ~ty args = insert b ~ty:(Some ty) (Intr (i, args))

(* inlined, so that a literal [ret b None] compiles to one static
   [Ret None] shared by every function instead of a block per call *)
let[@inline] ret b v = set_term b (Ret v)
let br b bid = set_term b (Br bid)
let condbr b c t e = set_term b (CondBr (c, t, e))
