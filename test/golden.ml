(* Golden transform cases and the digest files that pin their IR.

   [test_opt] pins the optimized IR and the machine code of every case,
   [test_lifter] the lifted IR.  Each file in corpus/ has one line per
   case, "<name> <hex>": the MD5 of the IR printed by
   {!Pp_ir.canonical_modul} (values renumbered in print order, so a
   change of value-id allocation alone does not show), or of the
   assembled bytes.  A change meant only to make a layer faster must
   leave every digest as it was. *)

open Obrew_ir
module Modes = Obrew_core.Modes
module S = Obrew_stencil.Stencil

(* The four stencil shapes drawn for obench's specialize-mix workload
   ([Obench.family], seed 2017), copied as literals: 5, 6, 7 and 9
   points in 2, 3, 5 and 9 coefficient groups.  They are the largest
   DBrew+LLVM inputs of that workload. *)
let drawn_shapes =
  [ ("5p2g",
     [ (0.21455266268897111, [ (-1, -1); (1, -1) ]);
       (0.19029822487401926, [ (0, -1); (0, 1); (-1, 1) ]) ]);
    ("6p3g",
     [ (0.12224154617951466, [ (1, -1) ]);
       (0.15475549918299514, [ (1, 1); (0, 1) ]);
       (0.18941581848483169, [ (0, 0); (-1, 1); (-1, -1) ]) ]);
    ("7p5g",
     [ (0.1402408332149358, [ (0, -1) ]);
       (0.14375848122098317, [ (1, -1); (0, 1) ]);
       (0.13359067962181434, [ (0, 0) ]);
       (0.13058758854053823, [ (1, 0) ]);
       (0.15403196809037259, [ (1, 1); (-1, -1) ]) ]);
    ("9p9g",
     [ (0.14070216233359731, [ (1, -1) ]);
       (0.12516567049195795, [ (1, 1) ]);
       (0.11429175538918249, [ (-1, -1) ]);
       (0.099246152134007684, [ (0, 1) ]);
       (0.11836133253059257, [ (-1, 1) ]);
       (0.084541324573812582, [ (0, -1) ]);
       (0.13546205838061487, [ (1, 0) ]);
       (0.07724740754645272, [ (0, 0) ]);
       (0.10498213661978187, [ (-1, 0) ]) ]) ]

let all_kinds = [ Modes.Direct; Modes.Flat; Modes.Sorted ]
let all_styles = [ Modes.Element; Modes.Line ]

let points4 = [ (S.factor4, S.points4) ]

(* The paper's 4-point stencil at sz 11. *)
let points4_env () = Modes.build ~sz:11 ~groups:points4 ()

(* At sz 11, for the three modes that run the optimizer: the points4
   and groups8 shapes under every kind x style, and the drawn shapes
   under the kinds that read the stencil from memory (Direct hard-codes
   the paper's stencil whatever the environment holds).  Each case is
   (name, environment, kind, style, mode). *)
let cases () =
  let shapes =
    [ ("points4", points4, all_kinds); ("groups8", S.groups8, all_kinds) ]
    @ List.map (fun (n, g) -> (n, g, [ Modes.Flat; Modes.Sorted ]))
        drawn_shapes
  in
  List.concat_map
    (fun (shape, groups, kinds) ->
      let env = Modes.build ~sz:11 ~groups () in
      List.concat_map
        (fun kind ->
          List.concat_map
            (fun style ->
              List.map
                (fun mode ->
                  let name =
                    String.concat "/"
                      [ shape; Modes.kind_name kind; Modes.style_name style;
                        Modes.transform_name mode ]
                  in
                  (name, env, kind, style, mode))
                [ Modes.Llvm; Modes.LlvmFix; Modes.DBrewLlvm ])
            all_styles)
        kinds)
    shapes

let digest_string s = Digest.to_hex (Digest.string s)
let ir_digest m = digest_string (Pp_ir.canonical_modul m)

(* A digest file of corpus/, checked by [exe]; [what] names the pinned
   IR in messages. *)
type file = { file : string; exe : string; what : string }

let regen_command d =
  Printf.sprintf "OBREW_REGEN_DIGESTS=test/corpus/%s dune exec test/%s.exe"
    d.file d.exe

(* With OBREW_REGEN_DIGESTS set to the path of [d]'s file, write
   [digests ()] there and exit instead of running the tests. *)
let regen_if_asked d digests =
  match Sys.getenv_opt "OBREW_REGEN_DIGESTS" with
  | Some path when Filename.basename path = d.file ->
    let oc = open_out path in
    Printf.fprintf oc "# %s digests; regenerate with:\n# %s\n" d.what
      (regen_command d);
    List.iter (fun (n, h) -> Printf.fprintf oc "%s %s\n" n h) (digests ());
    close_out oc;
    exit 0
  | _ -> ()

let read d =
  (* runtest executes next to the copied corpus/; dune exec runs from
     the root of the checkout *)
  let path =
    List.find Sys.file_exists
      [ Filename.concat "corpus" d.file; Filename.concat "test/corpus" d.file ]
  in
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | [ n; h ] -> (n, h)
         | _ -> Alcotest.failf "%s: malformed line %S" d.file l)

(* The cases of [got] whose digest differs from [d]'s. *)
let changed d got =
  let want = read d in
  List.filter_map
    (fun (n, h) -> if List.assoc_opt n want = Some h then None else Some n)
    got

(* Fails on any changed digest, naming every changed case at once, each
   followed by [note case] when that is not empty. *)
let check ?(note = fun _ -> "") d got =
  let want = read d in
  Alcotest.check (Alcotest.list Alcotest.string) "same cases"
    (List.map fst want) (List.map fst got);
  let changed = changed d got in
  let line n = match note n with "" -> n | s -> n ^ " (" ^ s ^ ")" in
  if changed <> [] then
    Alcotest.failf
      "%s: %s changed in %d of %d cases:\n  %s\nif the change is intended, \
       regenerate with: %s"
      d.file d.what (List.length changed) (List.length want)
      (String.concat "\n  " (List.map line changed)) (regen_command d)
