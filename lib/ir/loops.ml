(** Natural loops: one per loop header, the loops of back edges that
    share a header merged.  Every block of [f] must be reachable (run
    {!Cfg.prune_unreachable} first). *)

open Ins

type loop = {
  header : int;
  body : unit Idtbl.t; (* block ids, the header included *)
}

(** The natural loops of [f], in the block order of each header's first
    back edge (an edge to a block that dominates its source). *)
let natural (f : func) : loop list =
  let dom = Dom.compute f in
  let preds = Cfg.predecessors f in
  let loops = ref [] in
  List.iter
    (fun (b : block) ->
      List.iter
        (fun s ->
          if Dom.dominates dom s b.bid then begin
            let body =
              match List.find_opt (fun l -> l.header = s) !loops with
              | Some l -> l.body
              | None ->
                let body = Idtbl.for_blocks f in
                Idtbl.replace body s ();
                loops := { header = s; body } :: !loops;
                body
            in
            (* the body: the blocks that reach the latch without
               passing the header *)
            let rec up x =
              if not (Idtbl.mem body x) then begin
                Idtbl.replace body x ();
                List.iter up (Option.value ~default:[] (Idtbl.find_opt preds x))
              end
            in
            up b.bid
          end)
        (successors b.term))
    f.blocks;
  List.rev !loops

(** Each block's loop depth: the number of natural loops whose body
    holds it (0 outside every loop). *)
let depths (f : func) : int Idtbl.t =
  let d = Idtbl.for_blocks f in
  List.iter (fun (b : block) -> Idtbl.replace d b.bid 0) f.blocks;
  List.iter
    (fun l ->
      List.iter
        (fun (b : block) ->
          if Idtbl.mem l.body b.bid then
            Idtbl.replace d b.bid (Idtbl.find d b.bid + 1))
        f.blocks)
    (natural f);
  d
