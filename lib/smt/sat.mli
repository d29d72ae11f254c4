(** CDCL SAT solver.

    A MiniSat-style conflict-driven clause-learning solver with two-watched
    literals, 1-UIP conflict analysis, VSIDS branching, phase saving, and
    Luby restarts. It supports solving under unit {e assumptions}, which the
    bitvector layer uses to pose many coverage queries against a single
    clause database (one query per coverage goal, as in p4-symbolic).

    Variables are dense non-negative integers allocated by [new_var].
    Literals pair a variable with a sign. *)

type t

module Lit : sig
  type t = private int

  val make : int -> bool -> t
  (** [make v sign]: positive literal of variable [v] when [sign]. *)

  val var : t -> int
  val sign : t -> bool
  val neg : t -> t
  val pp : Format.formatter -> t -> unit
end

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable, returning its index. *)

val num_vars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a clause. Adding the empty clause (or clauses that are already
    falsified at level 0) makes the instance unsatisfiable. *)

type result = Sat | Unsat

type assumption_result =
  | A_sat
  | A_unsat of Lit.t list
      (** The unsat core: a subset of the assumption literals whose
          conjunction with the clause database is already unsatisfiable
          (computed by final-conflict analysis; not guaranteed minimal).
          Empty iff the clause database itself is unsatisfiable. *)

val solve : ?assumptions:Lit.t list -> t -> result
(** Solve under the given assumption literals. The solver may be re-used:
    further clauses can be added and [solve] called again. *)

val solve_with_assumptions :
  ?order:Lit.t array -> t -> Lit.t list -> assumption_result
(** Incremental entry point: like [solve], but learned clauses and VSIDS
    activity persist across calls (they always did — this entry point
    additionally reports {e why} the assumptions failed). Assumptions are
    injected as pseudo-decisions below all search decisions; on failure the
    returned core is the subset implicated by final-conflict analysis.

    When [order] is given, decisions outside the assumptions are taken from
    [order] first: the first literal whose variable is unassigned is decided
    with the polarity written in the array (saved phases are not consulted).
    A [Sat] answer then yields the unique lexicographically preferred model
    w.r.t. [order] — for each position, the literal holds unless the clauses
    plus earlier positions force its negation. This makes the model a pure
    function of the formula's meaning, independent of learned clauses,
    restart timing, and heuristic state, which is what lets incremental and
    from-scratch solving produce bit-identical witnesses. Variables not in
    [order] are decided by VSIDS afterwards as usual. *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer. Unconstrained variables
    report their saved phase (defaults to [false]). *)

val num_learned : t -> int
(** Learned clauses currently retained in the clause database (0 after
    {!reset_search}; the [learned] entry of {!stats} counts every clause
    ever learned). *)

val cancel_to_root : t -> unit
(** Backtrack to decision level 0, discarding the current assignment (a
    model read via [value] beforehand is unaffected by later calls). Clause
    additions between solves should happen at level 0 so [add_clause]'s
    simplifications see only root-level facts. *)

val reset_search : t -> unit
(** Return to the search state of a fresh solver holding the same clauses,
    without rebuilding them: backtrack to level 0, drop every learned
    clause, and reset VSIDS activities, saved phases and the activity
    increments to their initial values, with the variable heap in index
    order. Root-level facts, the watch lists of the remaining clauses and
    the counters of {!stats} are kept. *)

val stats : t -> (string * int) list
(** Counters: conflicts, decisions, propagations, restarts, learned. *)
