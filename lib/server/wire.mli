(** The session server's wire format: one request line in, one JSON
    object line out (JSON Lines).  The JSON emitters here are also what
    the CLI's [--json] modes print with — one definition of escaping.

    Requests: [VERB] or [VERB ARGS], case-sensitive, terminated by a
    newline.  Responses always carry an ["ok"] field; failures are
    [{"ok":false,"error":"..."}]. *)

(** {1 JSON emission} *)

val json_escape : string -> string

(** A quoted, escaped JSON string literal. *)
val jstr : string -> string

(** [jobj [(k, v); ...]] — values are already-rendered JSON. *)
val jobj : (string * string) list -> string

(** [jlist items] — items are already-rendered JSON. *)
val jlist : string list -> string

val jint : int -> string

(** {1 Request parsing} *)

(** [split "query SELECT 1"] = [("query", "SELECT 1")]; the verb is
    everything before the first space, the rest is trimmed. *)
val split : string -> string * string

(** {1 Canned responses} *)

val ok_fields : (string * string) list -> string
val error : string -> string

(** [field json name] extracts the raw value of a top-level string or
    scalar field from one response line — a test/client helper, not a
    JSON parser (the protocol never nests what clients need). *)
val field : string -> string -> string option
