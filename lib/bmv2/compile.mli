(** The staged evaluator: compiles a P4 model once into OCaml closures
    (parser states, expressions, actions, tables, pipelines) and serves
    table lookups from indexed match structures
    ({!Switchv_match.Index} via {!State.index_lookup}), replacing the
    interpreter's per-packet AST walk and O(entries) scans.

    It is behavior-identical to {!Evaluator.interpreted}: same [behavior]
    (trace included), same coverage-counter keys (branch ids baked with
    the interpreter's pre-order numbering), same hash-call accounting,
    same [Parse_failure] messages.

    Staged pipelines are memoized per program value (physical equality,
    bounded), so staging is a one-time cost per long-lived program. *)

val evaluator : Evaluator.t
(** The staged evaluator; the default for stacks and campaigns. *)

val run : Interp.config -> ingress_port:int -> string -> Interp.behavior
(** [Evaluator.run evaluator]. *)
