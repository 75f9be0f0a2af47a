(** JSON syntax, written and read, with no dependency.

    The system writes JSON in several places — Export-v2 extractions,
    store manifest lines, [quality.jsonl] records, Chrome traces, bench
    and report summaries, serve's access log — and reads back two
    one-line formats of its own: the store manifest and
    [quality.jsonl].  This module owns the syntax of all of them;
    each client owns its schema (which members, of which kinds, in
    which order).

    Per-byte loops stay inside these functions.  Calls across libraries
    are not inlined in builds that pass [-opaque] (dune's dev profile),
    so a client pays one call per value, not one per byte. *)

(** {1 Writing}

    Every value is appended to a caller's [Buffer.t]; the
    string-returning functions wrap the writers. *)

val add_string : Buffer.t -> string -> unit
(** A string literal: ['"'], ['\\'], and [\n], [\r], [\t] as their short
    escapes, any other byte below [0x20] as [\u00XX] (lower-case hex),
    every other byte as itself.  A string with nothing to escape is one
    blit. *)

val string : string -> string
(** {!add_string}, returned. *)

val add_int : Buffer.t -> int -> unit
(** [Buffer.add_string b (Int.to_string n)], without the string. *)

val add_float : Buffer.t -> float -> unit
(** The manifest and quality-record float form: [%.0f] when the value is
    an integer below 10{^15} in magnitude, else [%.12g].  A non-finite
    value is written as OCaml prints it ([inf], [nan]), which is not
    JSON: the readers below never produce one. *)

val float : float -> string
(** {!add_float}, returned. *)

val add_field : Buffer.t -> first:bool -> string -> unit
(** [add_field b ~first key] writes an object member's key and colon as
    [, "key": ], without the leading [", "] when [first]. *)

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** [[a, b, ...]], each element written by the callback. *)

val render : ?size:int -> (Buffer.t -> 'a -> unit) -> 'a -> string
(** [render add v]: what [add] writes for [v], in a buffer of [size]
    bytes (64 by default) to start with. *)

val obj : (string * string) list -> string
(** A JSON object of pre-rendered values, keys escaped. *)

(** {1 Reading one-line objects}

    {!read_object} reads one flat object of string and number members,
    spaces and tabs between tokens, and hands each member to the
    client's schema as it is read.  The source string is only read, and
    {!string_value} returns a copy, so replay can read lines where they
    lie in a reused block.

    - A string may escape a quote, a backslash or a slash, and hold
      [\n], [\t], [\r] and [\u] with four hex digits up to [00ff] (read as
      [int_of_string] reads hex: the first a digit, each later one a
      digit or an ignored ['_']).  Its bytes are one [String.sub]
      unless it holds an escape.
    - A number is a run of the bytes [0-9+-.eE], decoded as
      [int_of_string_opt] would decode it ({!Int}), else as
      [float_of_string_opt] ({!Num}).  A run that decodes to neither,
      or to a non-finite float (["1e999"]), is malformed.  Two shapes
      are decoded in place, without a substring: a plain run of at most
      18 digits, and a fraction [digits.digits] whose digits, read as
      one integer [w], are at most 2{^53} and whose fraction has [k]
      digits, 1 to 22.  The latter is [float w /. 10{^k}], one division
      of two exact doubles, which is the correctly rounded value of the
      decimal (Clinger's fast path) and so bit for bit what
      [float_of_string] returns.  Every other token (a sign, an
      exponent, more digits) goes through the stdlib.
    - Arrays, nested objects, [true], [false] and [null] are
      malformed.

    A string body is skipped one plain run at a time, up to its next
    quote or backslash; whitespace costs one test where there is none,
    as in every line this system writes. *)

exception Malformed
(** Raised (without a backtrace) by {!read_object} when the window is
    not one such object; a schema may raise it too. *)

type value =
  | Str  (** a string: its body is [src.[lo .. stop)] *)
  | Int  (** an integer: [int] *)
  | Num  (** any other number: [num], finite *)

type reader = private {
  src : string;
  hi : int;
  mutable pos : int;
  mutable lo : int;     (** the last value's first byte (a string's body) *)
  mutable stop : int;   (** the end of the last string's body *)
  mutable esc : bool;   (** the last string holds an escape *)
  mutable kind : value;  (** the kind of the last value *)
  mutable int : int;
  mutable num : float;
}
(** The cursor over one object, as a schema sees it at each member. *)

val read_object :
  string array -> ('a -> reader -> int -> unit) -> 'a -> string -> int ->
  int -> unit
(** [read_object names member st src lo hi] reads the object that
    [src.[lo .. hi)] holds, with nothing before or after it but spaces
    and tabs.  For each member in order it calls [member st r f], with
    [f] the index in [names] of the member's name (escapes decoded) or
    -1, and [r] at the member's value.  A duplicated name is handed
    over each time, so a schema that overwrites a slot keeps the last
    value.  Each name is looked for first where it would follow the
    previous member's in [names], so [names] listed in the order the
    schema's writer emits them costs one comparison per member.  The
    names must hold no ['"'], ['\\'] or ['\n'].  Raises {!Malformed}. *)

val read_line :
  string array -> ('a -> reader -> int -> unit) -> 'a -> string -> int ->
  int -> int
(** [read_line names member st src lo hi] reads the line that starts at
    [lo]: [src.[lo .. e)], where [e] is the first ['\n'] at or after
    [lo], or [hi] when there is none before it.  It makes the calls and
    gives the verdict of [read_object names member st src lo e] and
    returns [e], but finds [e] as it reads, with no second pass over the
    line: a ['\n'] inside a string is the line's end, so the string is
    unterminated.  Where a line may go on past [hi] (the end of a block
    read so far), [e = hi] tells the caller so. *)

val string_value : reader -> string
(** The last string's bytes, escapes decoded. *)

val float_value : reader -> float
(** The last number as [float_of_string] reads its token: an {!Int} as
    its float (["-0"] as [-0.]), a {!Num} as itself. *)
