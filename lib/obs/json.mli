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
val to_bool_opt : t -> bool option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option

(** {2 Decoding untrusted records}

    Configs, fault plans, corpus entries, checkpoints and trace events
    are read back from files a user may have edited, so each decoder
    turns every malformed input into an [Error], never an exception and
    never a silently different value.  A record decoder reads each key
    with {!field} (or {!field_or} for a key that older files lack),
    converts it with a [to_*_opt] accessor, a {!list_of} of one, or a
    converter of its own, and adds its context to the message once:

    {[
      let of_json j =
        Result.map_error (( ^ ) "Plan.of_json: ")
          (let* n = Json.field "n" Json.to_int_opt j in
           let* xs = Json.field_or "xs" [] (Json.list_of Json.to_int_opt) j in
           let* sub = Result.bind (Json.field "s" Option.some j) Sub.of_json in
           Ok { n; xs; sub })
    ]}

    A list converts only if every item does, so ["xs":[1,"2"]] is an
    [Error] naming ["xs"], not [[1]].  A nested record goes to its own
    decoder, whose message then follows this one's context
    (["Plan.of_json: Sub.of_json: missing or bad \"m\""]).  Checks on a
    decoded value whose message reports the value (a negative count, an
    unknown kind) stay with the decoder that makes them. *)

val field : string -> (t -> 'a option) -> t -> ('a, string) result
(** [field k conv j] is [k]'s value in the object [j] through [conv];
    [Error "missing or bad \"k\""] when [j] has no [k] or [conv]
    refuses its value. *)

val field_or : string -> 'a -> (t -> 'a option) -> t -> ('a, string) result
(** Like {!field}, but an absent or [null] [k] gives [default]. *)

val list_of : (t -> 'a option) -> t -> 'a list option
(** A [List] whose every item converts, in order; [None] for anything
    else, a list with one item [conv] refuses included. *)
