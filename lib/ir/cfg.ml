(** Control-flow graph utilities: predecessor maps, reverse postorder,
    reachability.  Each is linear in the size of the CFG. *)

open Ins

(** Map from block id to its predecessors' ids (in deterministic
    order), considering only reachable blocks. *)
let predecessors (f : func) : int list Idtbl.t =
  let preds = Idtbl.for_blocks f in
  List.iter (fun b -> Idtbl.replace preds b.bid []) f.blocks;
  (* blocks last to first, so prepending leaves each list in block
     order *)
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = Option.value ~default:[] (Idtbl.find_opt preds s) in
          Idtbl.replace preds s (b.bid :: cur))
        (successors b.term))
    (List.rev f.blocks);
  preds

(** Block lookup by id in constant time; raises like {!Ins.find_block}
    for an id that names no block. *)
let block_finder (f : func) : int -> block =
  let t = Idtbl.for_blocks f in
  List.iter
    (fun b -> if not (Idtbl.mem t b.bid) then Idtbl.replace t b.bid b)
    f.blocks;
  fun bid ->
    match Idtbl.find_opt t bid with
    | Some b -> b
    | None -> invalid_arg (Printf.sprintf "%s: no block %d" f.fname bid)

(* Depth-first walk from the entry; [post] sees each block id after its
   successors. *)
let dfs (f : func) ~(post : int -> unit) : unit Idtbl.t =
  let find = block_finder f in
  let seen = Idtbl.for_blocks f in
  let rec go bid =
    if not (Idtbl.mem seen bid) then begin
      Idtbl.replace seen bid ();
      List.iter go (successors (find bid).term);
      post bid
    end
  in
  (match f.blocks with b :: _ -> go b.bid | [] -> ());
  seen

(** Blocks reachable from the entry. *)
let reachable (f : func) : unit Idtbl.t = dfs f ~post:ignore

(** Reverse postorder of reachable blocks, entry first. *)
let rpo (f : func) : int list =
  let order = ref [] in
  ignore (dfs f ~post:(fun bid -> order := bid :: !order));
  !order

(** Drop unreachable blocks and prune phi inputs from removed or
    non-predecessor blocks; true when a block or a phi input went.
    Only blocks whose phis lose an input are rewritten. *)
let prune_unreachable (f : func) : bool =
  let live = reachable f in
  let n = List.length f.blocks in
  f.blocks <- List.filter (fun b -> Idtbl.mem live b.bid) f.blocks;
  let changed = ref (List.length f.blocks <> n) in
  let preds = predecessors f in
  List.iter
    (fun b ->
      let ps = Option.value ~default:[] (Idtbl.find_opt preds b.bid) in
      let from_pred (p, _) = List.mem p ps in
      let loses i =
        match i.op with
        | Phi (_, ins) -> not (List.for_all from_pred ins)
        | _ -> false
      in
      (* phis lead the block *)
      let rec phis_lose = function
        | ({ op = Phi _; _ } as i) :: tl -> loses i || phis_lose tl
        | _ -> false
      in
      if phis_lose b.instrs then begin
        changed := true;
        b.instrs <-
          List.map
            (fun i ->
              match i.op with
              | Phi (t, ins) when loses i ->
                { i with op = Phi (t, List.filter from_pred ins) }
              | _ -> i)
            b.instrs
      end)
    f.blocks;
  !changed
