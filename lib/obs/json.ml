type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Obj x, Obj y ->
      List.equal (fun (k, v) (k', v') -> String.equal k k' && equal v v') x y
  | _ -> false

(* ----- emission -------------------------------------------------------- *)

(* Emission allocates only the string it returns, [Printf]'s strings for
   a float off [add_float]'s direct path, and a buffer when its domain's
   is in use or was dropped (see [to_string]). *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let rec clean s i =
  i = String.length s || ((not (needs_escape s.[i])) && clean s (i + 1))

let escape_to buf s =
  Buffer.add_char buf '"';
  if clean s 0 then Buffer.add_string buf s
  else
    for i = 0 to String.length s - 1 do
      match s.[i] with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
          Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]
      | c -> Buffer.add_char buf c
    done;
  Buffer.add_char buf '"'

(* the decimal digits of [m <= 0]: the non-positive side holds [min_int] *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.chr (Char.code '0' - (m mod 10)))

let add_int buf n =
  if n < 0 then Buffer.add_char buf '-';
  add_digits buf (if n < 0 then n else -n)

(* 10^k for k = 0..16, each an exact double *)
let pow10 =
  [| 1.; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16 |]

(* The least k from [k] to 16 with m = round(|f|·10^k) and
   m /. 10^k = |f|, or 0 if m reaches 10^12 (13 digits) first. *)
let rec short_k f k =
  let a = Float.abs f in
  let m = Float.round (a *. pow10.(k)) in
  if m >= 1e12 then 0
  else if m /. pow10.(k) = a then k
  else if k < 16 then short_k f (k + 1)
  else 0

(* the digits of [m >= 0] with a point before the last [k] of them *)
let rec add_fixed buf m k =
  if k = 0 then add_digits buf (-m)
  else begin
    add_fixed buf (m / 10) (k - 1);
    if k = 1 then Buffer.add_char buf '.';
    Buffer.add_char buf (Char.chr (Char.code '0' + (m mod 10)))
  end

(* A finite float renders as "%.1f" writes it if it is integral and
   below 1e15 in magnitude, else as "%.12g" writes it if that reads back
   as [f], else as "%.17g" writes it.  The first is its integer digits
   and ".0".  When |f| >= 1e-4 and [short_k] finds a decimal m·10^-k,
   that decimal is what "%.12g" writes.  This is exact: m and 10^k are
   exact doubles and the division is correctly rounded, so the decimal
   reads back as [f] and lies within half an ulp of it, far nearer than
   any other decimal of at most 12 significant digits, which makes it
   the value "%.12g" rounds [f] to.  With m < 10^12 and k >= 1 it lies
   in [1e-4, 1e11), where "%.12g" writes fixed notation, and the least k
   leaves no trailing zero for "%g" to strip (were m a multiple of 10,
   m/10 would pass at k - 1).  Only the other floats go through
   [Printf]. *)
let add_float buf f =
  let a = Float.abs f in
  if Float.is_integer f && a < 1e15 then begin
    if Float.sign_bit f then Buffer.add_char buf '-';
    add_digits buf (-int_of_float a);
    Buffer.add_string buf ".0"
  end
  else
    let k = if a >= 1e-4 then short_k f 1 else 0 in
    if k > 0 then begin
      if f < 0. then Buffer.add_char buf '-';
      add_fixed buf (int_of_float (Float.round (a *. pow10.(k)))) k
    end
    else
      let s = Printf.sprintf "%.12g" f in
      Buffer.add_string buf
        (if float_of_string s = f then s else Printf.sprintf "%.17g" f)

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> add_int buf n
  | Float f ->
      if Float.is_nan f || Float.abs f = Float.infinity then
        Buffer.add_string buf "null"
      else add_float buf f
  | Str s -> escape_to buf s
  | List l ->
      Buffer.add_char buf '[';
      emit_items buf l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      emit_fields buf fields;
      Buffer.add_char buf '}'

and emit_items buf = function
  | [] -> ()
  | [ v ] -> emit buf v
  | v :: rest ->
      emit buf v;
      Buffer.add_char buf ',';
      emit_items buf rest

and emit_fields buf = function
  | [] -> ()
  | [ (k, v) ] -> emit_field buf k v
  | (k, v) :: rest ->
      emit_field buf k v;
      Buffer.add_char buf ',';
      emit_fields buf rest

and emit_field buf k v =
  escape_to buf k;
  Buffer.add_char buf ':';
  emit buf v

(* Each domain keeps one buffer for its renderings.  A call takes it out
   of its slot and puts it back once done, so a rendering that another
   thread of the domain interrupts, or that starts inside one, finds the
   slot empty and makes its own.  A buffer that grew past 64 KB is left
   to the GC: one large rendering does not pin its buffer for good. *)
let taken = Buffer.create 0
let spare = Domain.DLS.new_key (fun () -> Atomic.make taken)

let to_string v =
  let slot = Domain.DLS.get spare in
  let buf = Atomic.exchange slot taken in
  let buf = if buf == taken then Buffer.create 128 else buf in
  emit buf v;
  let s = Buffer.contents buf in
  if Buffer.length buf <= 65_536 then begin
    Buffer.clear buf;
    Atomic.set slot buf
  end;
  s

let pp fmt v = Format.pp_print_string fmt (to_string v)

(* ----- parsing --------------------------------------------------------- *)

(* A parse allocates only its cursor and the value it returns: each step
   tests [pos < n] and the byte itself, a string without escapes is one
   [String.sub], and an integer of up to 18 digits is read in place. *)
type cursor = { s : string; n : int; mutable pos : int }

exception Parse_error of int * string

let fail c msg = raise (Parse_error (c.pos, msg))

(* Containers nest at most this deep: a deeper bracket is an error at
   its offset, so hostile input costs neither stack nor time in
   proportion to its depth. *)
let max_depth = 512

(* consume [ch] if it is under the cursor *)
let eat c ch =
  if c.pos < c.n && c.s.[c.pos] = ch then begin
    c.pos <- c.pos + 1;
    true
  end
  else false

let rec skip_ws c =
  if c.pos < c.n then
    match c.s.[c.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
        c.pos <- c.pos + 1;
        skip_ws c
    | _ -> ()

let expect c ch =
  if not (eat c ch) then fail c (Printf.sprintf "expected %C" ch)

let rec matches s pos word i =
  i = String.length word
  || (s.[pos + i] = word.[i] && matches s pos word (i + 1))

let literal c word v =
  let len = String.length word in
  if c.pos + len <= c.n && matches c.s c.pos word 0 then begin
    c.pos <- c.pos + len;
    v
  end
  else fail c ("expected " ^ word)

(* the four hex digits of a \u escape, and nothing else: no sign, no
   '_' separator, no "0x" prefix *)
let hex4 c =
  if c.pos + 4 > c.n then fail c "truncated \\u escape";
  let v = ref 0 in
  for i = c.pos to c.pos + 3 do
    let d =
      match c.s.[i] with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> fail c "bad \\u escape"
    in
    v := (!v lsl 4) lor d
  done;
  c.pos <- c.pos + 4;
  !v

(* a code point outside the BMP is escaped as a UTF-16 surrogate pair
   (RFC 8259 §7); a surrogate that is not half of a pair encodes
   nothing *)
let code_point c =
  let cp = hex4 c in
  if cp >= 0xDC00 && cp <= 0xDFFF then fail c "lone low surrogate"
  else if cp < 0xD800 || cp > 0xDBFF then cp
  else if c.pos + 2 <= c.n && c.s.[c.pos] = '\\' && c.s.[c.pos + 1] = 'u'
  then begin
    c.pos <- c.pos + 2;
    let lo = hex4 c in
    if lo < 0xDC00 || lo > 0xDFFF then fail c "lone high surrogate";
    0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else fail c "lone high surrogate"

(* the index of the first '"' or '\\' at or after [i], or [n] *)
let rec stop s n i =
  if i >= n then n
  else match s.[i] with '"' | '\\' -> i | _ -> stop s n (i + 1)

(* the rest of a string that has an escape, from the cursor on *)
let rec escaped c buf =
  let j = stop c.s c.n c.pos in
  Buffer.add_substring buf c.s c.pos (j - c.pos);
  c.pos <- j;
  if j >= c.n then fail c "unterminated string";
  c.pos <- j + 1;
  if c.s.[j] = '"' then Buffer.contents buf
  else begin
    if c.pos >= c.n then fail c "unterminated escape";
    let e = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    (match e with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point c))
    | _ -> fail c "bad escape");
    escaped c buf
  end

(* a string with no backslash is one [String.sub] of the input *)
let string c =
  expect c '"';
  let i = c.pos in
  let j = stop c.s c.n i in
  if j < c.n && c.s.[j] = '"' then begin
    c.pos <- j + 1;
    String.sub c.s i (j - i)
  end
  else escaped c (Buffer.create (j - i + 16))

let number c =
  let s = c.s and start = c.pos in
  let first = if s.[start] = '-' then start + 1 else start in
  let pos = ref first and acc = ref 0 and is_float = ref false in
  while
    !pos < c.n
    &&
    match s.[!pos] with
    | '0' .. '9' as d ->
        acc := (!acc * 10) + (Char.code d - Char.code '0');
        true
    | '.' | 'e' | 'E' | '+' | '-' ->
        is_float := true;
        true
    | _ -> false
  do
    incr pos
  done;
  c.pos <- !pos;
  let digits = !pos - first in
  (* 18 digits always fit an OCaml int; longer text may not *)
  if (not !is_float) && digits > 0 && digits <= 18 then
    Int (if first > start then - !acc else !acc)
  else
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail c "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail c "bad number")

(* the bracket under the cursor opens a container inside [depth] others *)
let enter c depth =
  if depth >= max_depth then
    fail c (Printf.sprintf "nesting deeper than %d" max_depth);
  c.pos <- c.pos + 1;
  skip_ws c

(* lists and objects are built front to back ([tail_mod_cons]): no
   reversal, and no stack in proportion to their length *)
let rec value c depth =
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input";
  match c.s.[c.pos] with
  | '"' -> Str (string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '[' ->
      enter c depth;
      if eat c ']' then List [] else List (items c (depth + 1))
  | '{' ->
      enter c depth;
      if eat c '}' then Obj [] else Obj (fields c (depth + 1))
  | '-' | '0' .. '9' -> number c
  | ch -> fail c (Printf.sprintf "unexpected %C" ch)

and[@tail_mod_cons] items c depth =
  let v = value c depth in
  skip_ws c;
  if eat c ',' then v :: items c depth
  else if eat c ']' then [ v ]
  else
    (* [raise], not [fail]: [tail_mod_cons] warns of a call here *)
    raise (Parse_error (c.pos, "expected ',' or ']'"))

and[@tail_mod_cons] fields c depth =
  skip_ws c;
  let k = string c in
  skip_ws c;
  expect c ':';
  let v = value c depth in
  skip_ws c;
  if eat c ',' then (k, v) :: fields c depth
  else if eat c '}' then [ (k, v) ]
  else raise (Parse_error (c.pos, "expected ',' or '}'"))

let of_string s =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = value c 0 in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
      Error (Printf.sprintf "json: at offset %d: %s" p msg)

(* ----- accessors -------------------------------------------------------- *)

(* [List.assoc_opt] would compare each key with the polymorphic
   [compare], a C call per key tried; the first binding still wins. *)
let rec assoc_string k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else assoc_string k rest

let member k = function Obj fields -> assoc_string k fields | _ -> None

let to_float_opt = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | _ -> None

let to_int_opt = function Int n -> Some n | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
