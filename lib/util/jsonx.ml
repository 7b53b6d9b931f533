(* Minimal JSON: construction, strict printing and a recursive-descent
   parser.  Hand-rolled on purpose — the tree has no JSON dependency, and
   both sides of the serve protocol (requests in, responses and bench
   artefacts out) need only the JSON subset below.  Printing is strict
   JSON: escaped strings and finite numbers only — non-finite floats
   degrade to [null], so no artefact or response ever contains the
   invalid tokens [nan] / [inf]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------------- printing ---------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    (* Keep Float/Int distinct through a print/parse roundtrip: an
       integral float carries an explicit ".0", and the shortest
       precision that reparses to the same bits wins. *)
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 1e16 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else begin
      let s = Printf.sprintf "%.15g" f in
      let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
      Buffer.add_string buf s
    end
  | Str s -> escape buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

(* ---------------- parsing ---------------- *)

exception Bad of string

type cursor = {
  s : string;
  mutable pos : int;
}

let fail c fmt = Printf.ksprintf (fun msg -> raise (Bad (Printf.sprintf "at %d: %s" c.pos msg))) fmt

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail c "expected %C, found %C" ch x
  | None -> fail c "expected %C, found end of input" ch

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c "invalid literal"

(* Encode a Unicode scalar value as UTF-8 (for \uXXXX escapes; surrogate
   pairs combine before encoding). *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end

let hex4 c =
  if c.pos + 4 > String.length c.s then fail c "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let d =
      match c.s.[c.pos + i] with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> fail c "invalid \\u escape"
    in
    v := (!v * 16) + d
  done;
  c.pos <- c.pos + 4;
  !v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    if c.pos >= String.length c.s then fail c "unterminated string";
    match c.s.[c.pos] with
    | '"' -> c.pos <- c.pos + 1
    | '\\' ->
      c.pos <- c.pos + 1;
      (if c.pos >= String.length c.s then fail c "unterminated escape";
       let ch = c.s.[c.pos] in
       c.pos <- c.pos + 1;
       match ch with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'u' ->
         let u = hex4 c in
         let u =
           (* High surrogate: a low surrogate must follow. *)
           if u >= 0xd800 && u <= 0xdbff
              && c.pos + 1 < String.length c.s
              && c.s.[c.pos] = '\\'
              && c.s.[c.pos + 1] = 'u'
           then begin
             c.pos <- c.pos + 2;
             let lo = hex4 c in
             if lo >= 0xdc00 && lo <= 0xdfff then
               0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00)
             else fail c "invalid surrogate pair"
           end
           else u
         in
         add_utf8 buf u
       | _ -> fail c "invalid escape");
      loop ()
    | ch when Char.code ch < 0x20 -> fail c "control character in string"
    | ch ->
      Buffer.add_char buf ch;
      c.pos <- c.pos + 1;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  let digits () =
    let d = ref 0 in
    while (match peek c with Some ('0' .. '9') -> true | _ -> false) do
      c.pos <- c.pos + 1;
      incr d
    done;
    !d
  in
  if digits () = 0 then fail c "invalid number";
  if peek c = Some '.' then begin
    is_float := true;
    c.pos <- c.pos + 1;
    if digits () = 0 then fail c "digits must follow a decimal point"
  end;
  (match peek c with
   | Some ('e' | 'E') ->
     is_float := true;
     c.pos <- c.pos + 1;
     (match peek c with Some ('+' | '-') -> c.pos <- c.pos + 1 | _ -> ());
     if digits () = 0 then fail c "digits must follow an exponent"
   | _ -> ());
  let text = String.sub c.s start (c.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text) (* out of int range *)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      Arr []
    end
    else begin
      let items = ref [ parse_value c ] in
      skip_ws c;
      while peek c = Some ',' do
        c.pos <- c.pos + 1;
        items := parse_value c :: !items;
        skip_ws c
      done;
      expect c ']';
      Arr (List.rev !items)
    end
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let field () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws c;
      while peek c = Some ',' do
        c.pos <- c.pos + 1;
        fields := field () :: !fields;
        skip_ws c
      done;
      expect c '}';
      Obj (List.rev !fields)
    end
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c "unexpected character %C" ch

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error (Printf.sprintf "at %d: trailing garbage" c.pos)
    else Ok v
  | exception Bad msg -> Error msg

(* ---------------- accessors ---------------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | Float f when Float.is_integer f -> Some (int_of_float f) | _ -> None
let to_float_opt = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_list_opt = function Arr l -> Some l | _ -> None

let of_float_opt = function Some f -> Float f | None -> Null
