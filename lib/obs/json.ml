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

(* A rendering writes into a writer: bytes and the position of the next
   one.  Each token reserves its room with one capacity check, then
   stores its bytes unchecked.  Emission allocates only the string it
   returns, [format_float]'s strings for a float off [add_float]'s
   direct path, larger bytes when a rendering outgrows the writer's, and
   a writer when its domain's is in use or was dropped (see
   [to_string]). *)
type writer = { mutable b : Bytes.t; mutable pos : int }

(* room for [n] more bytes: the capacity doubles until they fit *)
let grow w n =
  let need = w.pos + n in
  let rec size c = if c >= need then c else size (2 * c) in
  let b = Bytes.create (size (2 * Bytes.length w.b)) in
  Bytes.blit w.b 0 b 0 w.pos;
  w.b <- b

let[@inline] reserve w n = if w.pos + n > Bytes.length w.b then grow w n

let[@inline] add_char w c =
  reserve w 1;
  Bytes.unsafe_set w.b w.pos c;
  w.pos <- w.pos + 1

(* [s] at [p] in [b]: a short literal, stored byte by byte *)
let rec put_string b p s i =
  if i < String.length s then begin
    Bytes.unsafe_set b (p + i) (String.unsafe_get s i);
    put_string b p s (i + 1)
  end

let add_literal w s =
  reserve w (String.length s);
  put_string w.b w.pos s 0;
  w.pos <- w.pos + String.length s

(* the \u escapes of the control bytes *)
let controls = Array.init 0x20 (fun i -> Printf.sprintf "\\u%04x" i)

(* the escape of [c] at the writer's position, with room reserved for
   it and for the [rest] bytes that follow *)
let add_escape w c rest =
  let e =
    match c with
    | '"' -> "\\\""
    | '\\' -> "\\\\"
    | '\n' -> "\\n"
    | '\r' -> "\\r"
    | '\t' -> "\\t"
    | '\b' -> "\\b"
    | '\012' -> "\\f"
    | c -> controls.(Char.code c)
  in
  reserve w (String.length e + rest);
  put_string w.b w.pos e 0;
  w.pos <- w.pos + String.length e

(* [s] from byte [i] on, then the closing quote and, for a key, a ':',
   copied to [b] at [p] with room for all of it reserved: an escape
   stops the copy to reserve its extra bytes *)
let rec copy w b s n i p ~key =
  if i = n then begin
    Bytes.unsafe_set b p '"';
    if key then begin
      Bytes.unsafe_set b (p + 1) ':';
      w.pos <- p + 2
    end
    else w.pos <- p + 1
  end
  else
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      w.pos <- p;
      add_escape w c (n - i + if key then 1 else 0);
      copy w w.b s n (i + 1) w.pos ~key
    end
    else begin
      Bytes.unsafe_set b p c;
      copy w b s n (i + 1) (p + 1) ~key
    end

let add_string w s =
  let n = String.length s in
  reserve w (n + 2);
  Bytes.unsafe_set w.b w.pos '"';
  copy w w.b s n 0 (w.pos + 1) ~key:false

(* [pre], then [k] as an object's key: quoted, escaped, and a ':' *)
let add_key w pre k =
  let n = String.length k in
  reserve w (n + 4);
  let b = w.b and p = w.pos in
  Bytes.unsafe_set b p pre;
  Bytes.unsafe_set b (p + 1) '"';
  copy w b k n 0 (p + 2) ~key:true

(* the number of decimal digits of [m <= 0], which has at least [d] of
   them, with [p] = -10^d; the non-positive side holds [min_int], whose
   19 digits are the most *)
let rec digit_count m p d =
  if m > p then d else if d = 18 then 19 else digit_count m (10 * p) (d + 1)

(* the digits of [m <= 0], the last one at [p - 1] *)
let rec put_digits b p m =
  Bytes.unsafe_set b (p - 1) (Char.unsafe_chr (Char.code '0' - (m mod 10)));
  if m <= -10 then put_digits b (p - 1) (m / 10)

(* [m <= 0]'s digits after a '-' if [neg], then [tail]: one token *)
let add_digits w ~neg m tail =
  let sign = if neg then 1 else 0 in
  let e = w.pos + sign + digit_count m (-10) 1 in
  reserve w (e - w.pos + String.length tail);
  if neg then Bytes.unsafe_set w.b w.pos '-';
  put_digits w.b e m;
  put_string w.b e tail 0;
  w.pos <- e + String.length tail

let add_int w n = add_digits w ~neg:(n < 0) (if n < 0 then n else -n) ""

(* 10^k for k = 0..16, each an exact double, and as an integer *)
let pow10 =
  [| 1.; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16 |]

let int_pow10 = Array.map int_of_float pow10

(* The least k from [k] to 16 with m = round(|f|·10^k) and
   m /. 10^k = |f|, or 0 if m reaches 10^12 (13 digits) first. *)
let rec short_k f k =
  let a = Float.abs f in
  let m = Float.round (a *. pow10.(k)) in
  if m >= 1e12 then 0
  else if m /. pow10.(k) = a then k
  else if k < 16 then short_k f (k + 1)
  else 0

(* the [k] digits of [m mod 10^k], the last one at [p - 1] *)
let rec put_fraction b p m k =
  if k > 0 then begin
    Bytes.unsafe_set b (p - 1) (Char.unsafe_chr (Char.code '0' + (m mod 10)));
    put_fraction b (p - 1) (m / 10) (k - 1)
  end

(* the digits of [m >= 0] with a point before the last [k >= 1] of
   them, at least one digit before it, after a '-' if [neg] *)
let add_fixed w ~neg m k =
  let whole = -(m / int_pow10.(k)) in
  let sign = if neg then 1 else 0 in
  let len = sign + digit_count whole (-10) 1 + 1 + k in
  reserve w len;
  let b = w.b and e = w.pos + len in
  if neg then Bytes.unsafe_set b w.pos '-';
  put_fraction b e m k;
  Bytes.unsafe_set b (e - k - 1) '.';
  put_digits b (e - k - 1) whole;
  w.pos <- e

(* the C library's rendering of a float, which [Printf] makes of "%.12g"
   and "%.17g" after reading its format *)
external format_float : string -> float -> string = "caml_format_float"

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
   m/10 would pass at k - 1).  Conversely, a non-integral [f] in that
   range whose "%.12g" text reads back as [f] is such a decimal, with
   k <= 15 and m < 10^12, and [short_k] finds it, so when it finds none
   that text does not read back and "%.17g" is written at once.  Only
   the floats off these paths go through [format_float]. *)
let add_float w f =
  let a = Float.abs f in
  if Float.is_integer f && a < 1e15 then
    add_digits w ~neg:(Float.sign_bit f) (-int_of_float a) ".0"
  else
    let k = if a >= 1e-4 then short_k f 1 else 0 in
    if k > 0 then
      add_fixed w ~neg:(f < 0.) (int_of_float (Float.round (a *. pow10.(k)))) k
    else if a >= 1e-4 && a < 1e11 then add_literal w (format_float "%.17g" f)
    else
      let s = format_float "%.12g" f in
      add_literal w (if float_of_string s = f then s else format_float "%.17g" f)

let rec emit w = function
  | Null -> add_literal w "null"
  | Bool b -> add_literal w (if b then "true" else "false")
  | Int n -> add_int w n
  | Float f ->
      if Float.is_nan f || Float.abs f = Float.infinity then
        add_literal w "null"
      else add_float w f
  | Str s -> add_string w s
  | List [] -> add_literal w "[]"
  | List l ->
      emit_items w '[' l;
      add_char w ']'
  | Obj [] -> add_literal w "{}"
  | Obj fields ->
      emit_fields w '{' fields;
      add_char w '}'

(* each item or field after [pre]: the opening bracket, then ',' *)
and emit_items w pre = function
  | [] -> ()
  | v :: rest ->
      add_char w pre;
      emit w v;
      emit_items w ',' rest

and emit_fields w pre = function
  | [] -> ()
  | (k, v) :: rest ->
      add_key w pre k;
      emit w v;
      emit_fields w ',' rest

(* Each domain keeps one writer for its renderings.  A call takes it out
   of its slot and puts it back once done, so a rendering that another
   thread of the domain interrupts, or that starts inside one, finds the
   slot empty and makes its own.  A writer that grew past 64 KB is left
   to the GC: one large rendering does not pin its bytes for good. *)
let taken = { b = Bytes.empty; pos = 0 }
let spare = Domain.DLS.new_key (fun () -> Atomic.make taken)

let to_string v =
  let slot = Domain.DLS.get spare in
  let w = Atomic.exchange slot taken in
  let w = if w == taken then { b = Bytes.create 128; pos = 0 } else w in
  emit w v;
  let s = Bytes.sub_string w.b 0 w.pos in
  if Bytes.length w.b <= 65_536 then begin
    w.pos <- 0;
    Atomic.set slot w
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
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None

(* ----- decoders --------------------------------------------------------- *)

let refused k = Error (Printf.sprintf "missing or bad %S" k)

let field k conv j =
  match Option.bind (member k j) conv with Some x -> Ok x | None -> refused k

let field_or k default conv j =
  match member k j with
  | None | Some Null -> Ok default
  | Some v -> ( match conv v with Some x -> Ok x | None -> refused k)

let list_of conv = function
  | List items ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | v :: rest -> (
            match conv v with Some x -> go (x :: acc) rest | None -> None)
      in
      go [] items
  | _ -> None
