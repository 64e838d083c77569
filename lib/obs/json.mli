(** A minimal JSON representation with a serializer and parser, hand-rolled
    so the observability layer adds no dependencies.

    The emitter produces one-line (no newline) renderings, which is what
    {!Export} needs for line-delimited JSON; the parser accepts any
    standard JSON text and is what [rlin serve], checkpoints, the chaos
    corpus and config loading read untrusted input with.  Floats that are
    NaN or infinite serialize as [null] (JSON has no representation for
    them).

    Both directions allocate only their result: a parse builds the value
    it returns and nothing else (a string without escapes is one copy of
    the input, an integer of up to 18 digits is read in place), and a
    rendering writes each token straight into bytes that its domain
    reuses, with one capacity check per token, and then copies out the
    string it returns (a float off the digit-by-digit path below also
    allocates its formatted text).  A finite float renders
    as ["%.1f"] if it is integral and below 1e15 in magnitude, else as
    ["%.12g"] if that reads back as the same float, else as ["%.17g"];
    such an integral value, and a value of magnitude 1e-4 or more whose
    shortest decimal has at most 12 significant digits, is written digit
    by digit with the same bytes.  Any other value of magnitude in
    \[1e-4, 1e11) is written as ["%.17g"] at once, as its ["%.12g"] text
    cannot read back; only floats outside that range try ["%.12g"]
    first. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val equal : t -> t -> bool
(** Structural equality; [Int n] and [Float f] are distinct even when
    numerically equal (round-trips preserve the constructor). *)

val to_string : t -> string
(** Render on one line (no embedded newlines: strings are escaped).  Safe
    from any domain or thread: a call takes its domain's bytes for its
    own use and puts them back after, unless the rendering grew them past
    64 KB. *)

val of_string : string -> (t, string) result
(** Parse a single JSON value.  [Error msg] reads
    ["json: at offset N: ..."], [N] the byte offset where parsing
    stopped.  Containers nest at most 512 deep: the bracket that opens
    level 513 fails with ["nesting deeper than 512"] at its own offset,
    so a hostile line costs neither stack nor time in proportion to its
    depth. *)

val pp : Format.formatter -> t -> unit

(** {2 Accessors (total, for tests and tooling)} *)

val member : string -> t -> t option
(** Field lookup in an [Obj]: the first binding of the key; [None] if
    there is none or the value is not an [Obj]. *)

val to_float_opt : t -> float option
(** [Int] and [Float] both convert. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
