(** SMT solver frontend for QF_BV.

    Formulas built with {!Term} are bit-blasted (Tseitin encoding) into the
    {!Sat} CDCL core. The solver is incremental in the style p4-symbolic
    needs: assert the program encoding once with [assert_formula], then pose
    each coverage goal as an {e assumption} to [check] — the clause database
    (and everything the SAT solver learned) is reused across goals. *)

module Bitvec = Switchv_bitvec.Bitvec

type t

val create : unit -> t

val assert_formula : t -> Term.boolean -> unit
(** Constrain the instance. At the root the constraint is permanent; inside
    a {!push} scope it lives until the matching {!pop}. Either way it is
    bit-blasted as given, like an assumption, so subterms it shares
    physically with earlier formulas hit the Tseitin memo. Timed as the
    [smt.assert] span. *)

val push : t -> unit
(** Open a scope. Formulas asserted until the matching [pop] are guarded by
    a fresh selector literal and retractable. The Tseitin environment is
    persistent across scopes: subterms shared with anything blasted earlier
    are not re-blasted. *)

val pop : t -> unit
(** Close the innermost scope, retracting its assertions (and disabling the
    clauses learned from them). Raises [Invalid_argument] when no scope is
    open. *)

val scope_depth : t -> int

val reset_search : t -> unit
(** Put the SAT core back in a fresh solver's search state (see
    {!Sat.reset_search}): learned clauses are dropped and the branching
    heuristic starts over, while every blasted clause, the Tseitin memos
    and the open scopes stay. Verdicts and canonical models do not change;
    only the work the next checks do. Counted as [smt.search_resets]. *)

type model = {
  bv : string -> Bitvec.t option;   (** value of a bitvector variable *)
  bool : string -> bool option;     (** value of a boolean variable *)
}

type result = Sat of model | Unsat

type verdict =
  | V_sat of model
  | V_unsat of int list
      (** Positions (0-based) into the [assumptions] list implicated by
          final-conflict analysis: the conjunction of the asserted state
          with just those assumptions is already unsatisfiable. Not
          guaranteed minimal. Empty when the asserted state alone is
          unsatisfiable — every superset of assumptions is then unsat
          too. *)

type canonical_var =
  | C_bool of string
  | C_bv of string
      (** A variable position in the canonical model order; see [check]. *)

val check :
  ?assumptions:Term.boolean list -> ?canonical:canonical_var list -> t -> result
(** Satisfiability of asserted formulas plus the given assumptions. On
    [Sat], the model covers every variable that appears in asserted or
    assumed formulas; variables the SAT core left unconstrained get
    arbitrary (but fixed) values.

    With [canonical], the one search of the check decides the named
    variables in a fixed order, so a [Sat] answer carries the canonical
    model: the named variables take the lexicographically minimal values
    (booleans false-first, bitvectors numerically minimal, earlier list
    positions outrank later ones) among all models of the current
    constraints. The canonical model depends only on the {e meaning} of
    the constraints — not on learned clauses, heuristic state, or how the
    constraints were split into assertions and assumptions — which is what
    makes incremental and from-scratch solving produce identical
    witnesses.

    Timed as the [smt.check] span, with the phases [smt.blast] (assumption
    bit-blasting), [smt.search] (the CDCL call) and [smt.model] (model
    extraction, sat only) as child spans. *)

val check_verdict :
  ?assumptions:Term.boolean list -> ?canonical:canonical_var list -> t -> verdict
(** Like [check], but an unsat answer reports the assumption subset that
    failed, enabling callers to skip queries whose assumption set contains
    a known-unsat core. *)

val check_models : bool ref
(** Self-check mode (off by default; tests switch it on): every model
    returned by [check]/[check_verdict] is re-evaluated against the
    asserted and assumed formulas, and a mismatch raises {!Model_mismatch}
    — blasting bugs fail loudly instead of corrupting generated packets. *)

exception Model_mismatch of string

val stats : t -> (string * int) list
(** SAT-core statistics plus CNF size counters. *)
