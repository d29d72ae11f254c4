(** Quantifier-free bitvector terms.

    This is the formula language produced by p4-symbolic and consumed by
    {!Solver}. Terms are pure ADTs; the smart constructors perform width
    checking and aggressive constant folding (p4-symbolic's guards over
    concrete table entries fold substantially, which keeps the CNF small).

    Physically shared subterms are preserved by construction and exploited
    by the bit-blaster's memo tables, so building terms incrementally (as
    the symbolic interpreter does) yields DAG-sized, not tree-sized, CNF. *)

module Bitvec = Switchv_bitvec.Bitvec

type bv =
  | Bv_const of Bitvec.t
  | Bv_var of string * int                (* name, width *)
  | Bv_not of bv
  | Bv_neg of bv
  | Bv_and of bv * bv
  | Bv_or of bv * bv
  | Bv_xor of bv * bv
  | Bv_add of bv * bv
  | Bv_sub of bv * bv
  | Bv_mul of bv * bv
  | Bv_concat of bv * bv
  | Bv_extract of int * int * bv          (* hi, lo *)
  | Bv_zero_ext of int * bv               (* target width *)
  | Bv_ite of boolean * bv * bv

and boolean =
  | B_true
  | B_false
  | B_var of string
  | B_eq of bv * bv
  | B_ult of bv * bv
  | B_ule of bv * bv
  | B_not of boolean
  | B_and of boolean * boolean
  | B_or of boolean * boolean
  | B_ite of boolean * boolean * boolean

val bv_width : bv -> int

(** {1 Smart constructors (fold constants, check widths)} *)

val const : Bitvec.t -> bv
val var : string -> int -> bv
val of_int : width:int -> int -> bv

val bvnot : bv -> bv
val bvneg : bv -> bv
val bvand : bv -> bv -> bv
val bvor : bv -> bv -> bv
val bvxor : bv -> bv -> bv
val bvadd : bv -> bv -> bv
val bvsub : bv -> bv -> bv
val bvmul : bv -> bv -> bv
val concat : bv -> bv -> bv
val extract : hi:int -> lo:int -> bv -> bv
val zero_ext : int -> bv -> bv
val ite : boolean -> bv -> bv -> bv

val tru : boolean
val fls : boolean
val bvar : string -> boolean
val eq : bv -> bv -> boolean
val ult : bv -> bv -> boolean
val ule : bv -> bv -> boolean
val ugt : bv -> bv -> boolean
val uge : bv -> bv -> boolean
val neq : bv -> bv -> boolean
val not_ : boolean -> boolean
val and_ : boolean -> boolean -> boolean
val or_ : boolean -> boolean -> boolean
val implies : boolean -> boolean -> boolean
val iff : boolean -> boolean -> boolean
val bite : boolean -> boolean -> boolean -> boolean
val conj : boolean list -> boolean
val disj : boolean list -> boolean

val matches_ternary :
  bv -> value:Bitvec.t -> mask:Bitvec.t -> boolean
(** [(key land mask) = value] — the TCAM match condition. *)

val matches_prefix : bv -> Switchv_bitvec.Prefix.t -> boolean

(** {1 Evaluation}

    Reference semantics used by tests and by model validation. *)

type env = { bv_of : string -> Bitvec.t; bool_of : string -> bool }

val eval_bv : env -> bv -> Bitvec.t
val eval_bool : env -> boolean -> bool

(** {1 Variable collection} *)

val bv_vars : boolean -> (string * int) list
(** All bitvector variables (name, width), each reported once. Raises
    [Invalid_argument] if one name occurs at two widths. *)

val bool_vars : boolean -> string list
(** All boolean variables, each reported once, in first-occurrence order. *)

val size : boolean -> int
(** Distinct physical nodes reachable from the formula — the DAG size the
    bit-blaster's memo tables see, not the tree size. *)

val flatten_conj : boolean -> boolean list
(** Top-level conjuncts of a (nested) conjunction, left to right, with
    [tru] units dropped. [conj (flatten_conj f)] is logically [f]. *)

val pp_bv : Format.formatter -> bv -> unit
val pp_bool : Format.formatter -> boolean -> unit
