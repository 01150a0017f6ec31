(** The rules shared by the versioned text artifacts: counts
    ([# sic coverage counts v1]), timelines ([# sic coverage timeline v1]),
    engine profiles ([# sic profile v1]) and replay traces
    ([# sic replay trace v1]). Each codec parses only its own records. *)

type error = { file : string option; line : int option; msg : string }

exception Error of error
(** The one parse error of every artifact. [file] is set by {!load}. *)

val message : error -> string
(** [<file>:<line>: <msg>]; without a file, [line <n>: <msg>]. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
val fail_at : int -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Error}, unlocated or located at a 1-based line. *)

val header : string -> string
(** [header kind] is [# sic <kind> v1], the one header this build reads. *)

val iter_records : string -> string -> (int -> string -> unit) -> bool
(** [iter_records kind text f] calls [f lineno line] on every record of
    [text]: each line trimmed, blank and [#] lines skipped. A [# sic <kind>]
    line other than the v1 header, or a header after a record, raises.
    Returns whether the header was present. *)

val save : string -> string -> unit
(** [save path text] writes a temp file in [path]'s directory and renames
    it over [path], so no reader ever sees a torn file. An existing [path]
    that is not a plain file (a symlink, a device, a pipe) is written in
    place. *)

val load : (string -> 'a) -> string -> 'a
(** [load of_string path] parses the file; its {!Error}s gain [path]. *)
