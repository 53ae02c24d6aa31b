(** The one JSON value type, printer and parser behind every artifact
    OBrew writes (bench figures, traces, metrics, profiles, remarks,
    sentinel stats, black-box reports) and behind the validator that
    reads them back.  Dependency-free so it sits below every library.

    Round trip: [parse (to_string v) = v] for every [v] whose floats
    are finite.  Integers and floats are distinct constructors, so an
    int prints without a decimal point and a float always with one (or
    an exponent); both survive the trip exactly, including [max_int]
    and [min_int].  Strings are byte strings: quote, backslash and
    control bytes are escaped, every other byte is copied as is, so
    UTF-8 text stays readable and any byte string comes back
    unchanged.  [\uXXXX] escapes (surrogate pairs included) decode to
    UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when c < ' ' -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* shortest of %.15g/%.17g that reads back exactly, marked as a float *)
let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Json: cannot print non-finite float %g" f);
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

(** An object whose members are all integers. *)
let ints kvs = Obj (List.map (fun (k, v) -> (k, Int v)) kvs)

(** [fixed d x] is [x] rounded to [d] decimals, the value a ["%.*f"]
    printer would have written. *)
let fixed d x = Float (float_of_string (Printf.sprintf "%.*f" d x))

(** Compact by default; [~pretty:true] puts every member and element
    on its own line, indented by two spaces per level. *)
let to_string ?(pretty = false) v =
  let buf = Buffer.create 1024 in
  let newline ind =
    if pretty then Buffer.add_string buf ("\n" ^ String.make ind ' ')
  in
  let rec value ind = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> add_string buf s
    | List l -> seq ind '[' ']' (List.map (fun v -> (None, v)) l)
    | Obj kvs -> seq ind '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)
  and seq ind op cl items =
    Buffer.add_char buf op;
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        newline (ind + 2);
        Option.iter
          (fun k ->
            add_string buf k;
            Buffer.add_string buf (if pretty then ": " else ":"))
          k;
        value (ind + 2) v)
      items;
    if items <> [] then newline ind;
    Buffer.add_char buf cl
  in
  value 0 v;
  Buffer.contents buf

(** [to_file ?pretty path v] writes [v] and a final newline to [path],
    or to stdout when [path] is ["-"]. *)
let to_file ?pretty path v =
  let text = to_string ?pretty v ^ "\n" in
  if path = "-" then print_string text
  else Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

(** Parse one JSON document; raises [Parse_error] with the byte offset
    of the first problem.  A number with a fraction or an exponent is a
    [Float]; any other number is an [Int], or a [Float] if it does not
    fit in an OCaml int. *)
let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail what =
    raise (Parse_error (Printf.sprintf "%s at offset %d" what !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> incr pos; skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then (pos := !pos + l; v)
    else fail "bad literal"
  in
  let hex4 () =
    match
      if !pos + 4 <= n then int_of_string_opt ("0x" ^ String.sub s !pos 4)
      else None
    with
    | Some u -> pos := !pos + 4; u
    | None -> fail "bad \\u escape"
  in
  (* a \u escape; a high surrogate pairs with a following low one, an
     unpaired surrogate decodes to U+FFFD *)
  let unicode b =
    let u = hex4 () in
    let u =
      if u >= 0xd800 && u < 0xdc00 && !pos + 1 < n
         && String.sub s !pos 2 = "\\u"
      then begin
        let save = !pos in
        pos := !pos + 2;
        let lo = hex4 () in
        if lo >= 0xdc00 && lo < 0xe000 then
          0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00)
        else (pos := save; u)
      end
      else u
    in
    Buffer.add_utf_8_uchar b
      (if Uchar.is_valid u then Uchar.of_int u else Uchar.rep)
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        let c = peek () in
        incr pos;
        (match c with
         | Some ('"' | '\\' | '/' as c) -> Buffer.add_char b c
         | Some 'b' -> Buffer.add_char b '\b'
         | Some 'f' -> Buffer.add_char b '\012'
         | Some 'n' -> Buffer.add_char b '\n'
         | Some 'r' -> Buffer.add_char b '\r'
         | Some 't' -> Buffer.add_char b '\t'
         | Some 'u' -> unicode b
         | _ -> fail "bad escape");
        go ()
      | Some c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
      | _ -> false
    do incr pos done;
    let lit = String.sub s start (!pos - start) in
    let fraction = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit in
    match (fraction, int_of_string_opt lit, float_of_string_opt lit) with
    | false, Some i, _ -> Int i
    | _, _, Some f -> Float f
    | _ -> pos := start; fail ("bad number " ^ lit)
  in
  (* the comma-separated [item]s up to [close] *)
  let members close item =
    skip_ws ();
    if peek () = Some close then (incr pos; [])
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; go (x :: acc)
        | Some c when c = close -> incr pos; List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      Obj
        (members '}' (fun () ->
             skip_ws ();
             let k = string () in
             skip_ws ();
             expect ':';
             (k, value ())))
    | Some '[' -> incr pos; List (members ']' value)
    | Some '"' -> String (string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(** [member k v] is the value of field [k] when [v] is an object that
    has one. *)
let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
