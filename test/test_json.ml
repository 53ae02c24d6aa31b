(* The Json module: print -> parse is the identity on every value with
   finite floats, the printer escapes by JSON rules, not OCaml's, and
   the parser keeps integers exact and decodes \u escapes. *)

module Json = Obrew_json.Json

let same what want got = Alcotest.(check bool) what true (want = got)

(* bench/main.ml once printed strings with OCaml's %S, which writes
   "caf\195\169\001" — not JSON *)
let test_string_escapes () =
  let s = "caf\xc3\xa9\x01" in
  let text = Json.to_string (Json.String s) in
  Alcotest.(check string) "JSON escapes" "\"caf\xc3\xa9\\u0001\"" text;
  same "round trip" (Json.String s) (Json.parse text)

let test_int_extremes () =
  List.iter
    (fun n ->
      same (string_of_int n) (Json.Int n)
        (Json.parse (Json.to_string (Json.Int n))))
    [ max_int; min_int; 0; -1 ];
  (* beyond the int range a number still parses, as a float *)
  same "2^64" (Json.Float 18446744073709551616.)
    (Json.parse "18446744073709551616")

let test_unicode_escapes () =
  same "BMP" (Json.String "caf\xc3\xa9") (Json.parse {|"caf\u00e9"|});
  same "surrogate pair" (Json.String "\xf0\x9f\x98\x80")
    (Json.parse {|"\ud83d\ude00"|})

let test_rejects () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Json.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "\"open"; "1 2"; "nul"; "-"; "1.2.3";
      "\"\\x\"" ];
  List.iter
    (fun f ->
      match Json.to_string (Json.Float f) with
      | s -> Alcotest.failf "printed %s" s
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_fixed () =
  same "six decimals" (Json.Float 0.000437) (Json.fixed 6 0.0004371234);
  Alcotest.(check string) "float keeps its point" "2.0"
    (Json.to_string (Json.Float 2.0))

(* values of every shape; keys are arbitrary byte strings too *)
let gen_value =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let int = oneof [ int; oneofl [ max_int; min_int; 0 ] ] in
  let leaf =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) int; map (fun f -> Json.Float f) finite;
        map (fun s -> Json.String s) string ]
  in
  sized
    (fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> Json.List l)
                     (list_size (int_bound 4) (self (n / 4))));
               (1, map (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair string (self (n / 4))))) ]))

let test_round_trip =
  QCheck.Test.make ~count:500 ~name:"parse (print v) = v"
    (QCheck.make ~print:Json.to_string gen_value)
    (fun v ->
      Json.parse (Json.to_string v) = v
      && Json.parse (Json.to_string ~pretty:true v) = v)

let () =
  Alcotest.run "json"
    [ ("printer",
       [ Alcotest.test_case "string escapes" `Quick test_string_escapes;
         Alcotest.test_case "fixed decimals" `Quick test_fixed ]);
      ("parser",
       [ Alcotest.test_case "int extremes" `Quick test_int_extremes;
         Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
         Alcotest.test_case "rejects" `Quick test_rejects ]);
      ("round trip", [ QCheck_alcotest.to_alcotest test_round_trip ]) ]
