module Bitvec = Switchv_bitvec.Bitvec
module Telemetry = Switchv_telemetry.Telemetry
module Lit = Sat.Lit

module Phys = Hashtbl.Make (struct
  type t = Obj.t
  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Gate memos key on literals. A literal pair packs into one int (literals
   stay below 2^31: that is 2^30 variables); a mux's three literals are the
   select literal and a packed pair. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int
  let equal (a, b) (c, d) = a = c && b = d
  let hash = Hashtbl.hash
end)

(* A push scope: formulas asserted while the scope is active are guarded by
   its selector literal (clause [~sel \/ lit]), and every [check] assumes the
   selectors of all active scopes. [pop] retires the scope by asserting the
   unit [~sel], which permanently satisfies the guarded clauses — and any
   clauses learned from them, since those must mention [~sel] too. The
   Tseitin environment (variable maps, structural memos, gate table) is
   never rolled back: shared subterms bit-blast exactly once for the life of
   the solver. [originals] keeps the asserted formulas for the self-check
   mode. *)
type scope = { sel : Lit.t; mutable originals : Term.boolean list }

type t = {
  sat : Sat.t;
  true_lit : Lit.t;
  bv_vars : (string, Lit.t array) Hashtbl.t;
  bool_vars : (string, Lit.t) Hashtbl.t;
  bv_memo : Lit.t array Phys.t;
  bool_memo : Lit.t Phys.t;
  and_memo : Lit.t Int_tbl.t;
  xor_memo : Lit.t Int_tbl.t;
  mux_memo : Lit.t Pair_tbl.t;
  mutable n_gates : int;
  mutable scopes : scope list;           (* innermost first *)
  mutable root_originals : Term.boolean list;
}

let check_models = ref false

exception Model_mismatch of string

let create () =
  let sat = Sat.create () in
  let v0 = Sat.new_var sat in
  let true_lit = Lit.make v0 true in
  Sat.add_clause sat [ true_lit ];
  { sat; true_lit;
    bv_vars = Hashtbl.create 64;
    bool_vars = Hashtbl.create 16;
    bv_memo = Phys.create 1024;
    bool_memo = Phys.create 1024;
    and_memo = Int_tbl.create 4096;
    xor_memo = Int_tbl.create 1024;
    mux_memo = Pair_tbl.create 1024;
    n_gates = 0;
    scopes = [];
    root_originals = [] }

let lit_true t = t.true_lit
let lit_false t = Lit.neg t.true_lit
let is_true t l = l = lit_true t
let is_false t l = l = lit_false t
let of_bool t b = if b then lit_true t else lit_false t

let fresh t = Lit.make (Sat.new_var t.sat) true

let li l = (l : Lit.t :> int)
let pack x y = (li x lsl 31) lor li y

let pair_gate t memo x y mk =
  let key = pack x y in
  match Int_tbl.find_opt memo key with
  | Some l -> l
  | None ->
      let l = mk () in
      t.n_gates <- t.n_gates + 1;
      Int_tbl.add memo key l;
      l

let and_gate t a b =
  if is_false t a || is_false t b then lit_false t
  else if is_true t a then b
  else if is_true t b then a
  else if a = b then a
  else if a = Lit.neg b then lit_false t
  else begin
    let x, y = if li a < li b then (a, b) else (b, a) in
    pair_gate t t.and_memo x y (fun () ->
        let o = fresh t in
        Sat.add_clause t.sat [ Lit.neg o; x ];
        Sat.add_clause t.sat [ Lit.neg o; y ];
        Sat.add_clause t.sat [ o; Lit.neg x; Lit.neg y ];
        o)
  end

let or_gate t a b = Lit.neg (and_gate t (Lit.neg a) (Lit.neg b))

let xor_gate t a b =
  if is_false t a then b
  else if is_false t b then a
  else if is_true t a then Lit.neg b
  else if is_true t b then Lit.neg a
  else if a = b then lit_false t
  else if a = Lit.neg b then lit_true t
  else begin
    let x, y = if li a < li b then (a, b) else (b, a) in
    pair_gate t t.xor_memo x y (fun () ->
        let o = fresh t in
        Sat.add_clause t.sat [ Lit.neg o; x; y ];
        Sat.add_clause t.sat [ Lit.neg o; Lit.neg x; Lit.neg y ];
        Sat.add_clause t.sat [ o; Lit.neg x; y ];
        Sat.add_clause t.sat [ o; x; Lit.neg y ];
        o)
  end

let xnor_gate t a b = Lit.neg (xor_gate t a b)

(* mux c a b = if c then a else b *)
let mux_gate t c a b =
  if is_true t c then a
  else if is_false t c then b
  else if a = b then a
  else if is_true t a && is_false t b then c
  else if is_false t a && is_true t b then Lit.neg c
  else begin
    let key = (li c, pack a b) in
    match Pair_tbl.find_opt t.mux_memo key with
    | Some l -> l
    | None ->
        let o = fresh t in
        Sat.add_clause t.sat [ Lit.neg c; Lit.neg a; o ];
        Sat.add_clause t.sat [ Lit.neg c; a; Lit.neg o ];
        Sat.add_clause t.sat [ c; Lit.neg b; o ];
        Sat.add_clause t.sat [ c; b; Lit.neg o ];
        (* Redundant but propagation-strengthening clauses. *)
        Sat.add_clause t.sat [ Lit.neg a; Lit.neg b; o ];
        Sat.add_clause t.sat [ a; b; Lit.neg o ];
        t.n_gates <- t.n_gates + 1;
        Pair_tbl.add t.mux_memo key o;
        o
  end

let and_reduce t lits = Array.fold_left (and_gate t) (lit_true t) lits

(* Vectors are LSB-first literal arrays. *)

let bv_var_lits t name width =
  match Hashtbl.find_opt t.bv_vars name with
  | Some lits ->
      if Array.length lits <> width then
        invalid_arg (Printf.sprintf "Solver: variable %s blasted at two widths" name);
      lits
  | None ->
      let lits = Array.init width (fun _ -> fresh t) in
      Hashtbl.add t.bv_vars name lits;
      lits

let bool_var_lit t name =
  match Hashtbl.find_opt t.bool_vars name with
  | Some l -> l
  | None ->
      let l = fresh t in
      Hashtbl.add t.bool_vars name l;
      l

let const_lits t c =
  Array.init (Bitvec.width c) (fun i -> of_bool t (Bitvec.bit c i))

let add_lits t ?(carry_in = None) a b =
  let w = Array.length a in
  let out = Array.make w (lit_false t) in
  let carry = ref (match carry_in with Some c -> c | None -> lit_false t) in
  for i = 0 to w - 1 do
    let axb = xor_gate t a.(i) b.(i) in
    out.(i) <- xor_gate t axb !carry;
    carry := or_gate t (and_gate t a.(i) b.(i)) (and_gate t axb !carry)
  done;
  out

let not_lits a = Array.map Lit.neg a

let neg_lits t a =
  let w = Array.length a in
  let zero = Array.make w (lit_false t) in
  add_lits t ~carry_in:(Some (lit_true t)) zero (not_lits a)

let sub_lits t a b = add_lits t ~carry_in:(Some (lit_true t)) a (not_lits b)

let mul_lits t a b =
  let w = Array.length a in
  let acc = ref (Array.make w (lit_false t)) in
  for i = 0 to w - 1 do
    (* addend = (a << i) masked by b.(i) *)
    let addend =
      Array.init w (fun j -> if j < i then lit_false t else and_gate t a.(j - i) b.(i))
    in
    acc := add_lits t !acc addend
  done;
  !acc

let eq_lits t a b =
  and_reduce t (Array.init (Array.length a) (fun i -> xnor_gate t a.(i) b.(i)))

(* Unsigned a < b: the borrow out of a - b. *)
let ult_lits t a b =
  let borrow = ref (lit_false t) in
  for i = 0 to Array.length a - 1 do
    let nab = and_gate t (Lit.neg a.(i)) b.(i) in
    let same = xnor_gate t a.(i) b.(i) in
    borrow := or_gate t nab (and_gate t same !borrow)
  done;
  !borrow

let mux_lits t c a b = Array.init (Array.length a) (fun i -> mux_gate t c a.(i) b.(i))

let rec blast_bv t (term : Term.bv) : Lit.t array =
  match term with
  | Term.Bv_const c -> const_lits t c
  | Term.Bv_var (name, w) -> bv_var_lits t name w
  | _ ->
      let key = Obj.repr term in
      (match Phys.find_opt t.bv_memo key with
      | Some lits -> lits
      | None ->
          let lits =
            match term with
            | Term.Bv_const _ | Term.Bv_var _ -> assert false
            | Term.Bv_not a -> not_lits (blast_bv t a)
            | Term.Bv_neg a -> neg_lits t (blast_bv t a)
            | Term.Bv_and (a, b) ->
                let a = blast_bv t a and b = blast_bv t b in
                Array.init (Array.length a) (fun i -> and_gate t a.(i) b.(i))
            | Term.Bv_or (a, b) ->
                let a = blast_bv t a and b = blast_bv t b in
                Array.init (Array.length a) (fun i -> or_gate t a.(i) b.(i))
            | Term.Bv_xor (a, b) ->
                let a = blast_bv t a and b = blast_bv t b in
                Array.init (Array.length a) (fun i -> xor_gate t a.(i) b.(i))
            | Term.Bv_add (a, b) -> add_lits t (blast_bv t a) (blast_bv t b)
            | Term.Bv_sub (a, b) -> sub_lits t (blast_bv t a) (blast_bv t b)
            | Term.Bv_mul (a, b) -> mul_lits t (blast_bv t a) (blast_bv t b)
            | Term.Bv_concat (hi, lo) ->
                let hi = blast_bv t hi and lo = blast_bv t lo in
                Array.append lo hi
            | Term.Bv_extract (hi, lo, a) ->
                let a = blast_bv t a in
                Array.sub a lo (hi - lo + 1)
            | Term.Bv_zero_ext (w, a) ->
                let a = blast_bv t a in
                Array.init w (fun i -> if i < Array.length a then a.(i) else lit_false t)
            | Term.Bv_ite (c, a, b) ->
                let c = blast_bool t c in
                mux_lits t c (blast_bv t a) (blast_bv t b)
          in
          Phys.add t.bv_memo key lits;
          lits)

and blast_bool t (term : Term.boolean) : Lit.t =
  match term with
  | Term.B_true -> lit_true t
  | Term.B_false -> lit_false t
  | Term.B_var name -> bool_var_lit t name
  | _ ->
      let key = Obj.repr term in
      (match Phys.find_opt t.bool_memo key with
      | Some l -> l
      | None ->
          let l =
            match term with
            | Term.B_true | Term.B_false | Term.B_var _ -> assert false
            | Term.B_eq (a, b) -> eq_lits t (blast_bv t a) (blast_bv t b)
            | Term.B_ult (a, b) -> ult_lits t (blast_bv t a) (blast_bv t b)
            | Term.B_ule (a, b) -> Lit.neg (ult_lits t (blast_bv t b) (blast_bv t a))
            | Term.B_not a -> Lit.neg (blast_bool t a)
            | Term.B_and (a, b) -> and_gate t (blast_bool t a) (blast_bool t b)
            | Term.B_or (a, b) -> or_gate t (blast_bool t a) (blast_bool t b)
            | Term.B_ite (c, a, b) ->
                mux_gate t (blast_bool t c) (blast_bool t a) (blast_bool t b)
          in
          Phys.add t.bool_memo key l;
          l)

(* Every assert is blasted as given, as assumptions are. The Tseitin memos
   key on physical identity, so a subterm an earlier assert or assumption
   already blasted costs one hash lookup; a rewriting pass would rebuild the
   formula into fresh nodes that miss the memo. *)
let assert_formula t formula =
  Telemetry.with_span (Telemetry.get ()) "smt.assert" (fun () ->
      Sat.cancel_to_root t.sat;
      match t.scopes with
      | [] ->
          Sat.add_clause t.sat [ blast_bool t formula ];
          t.root_originals <- formula :: t.root_originals
      | scope :: _ ->
          Sat.add_clause t.sat [ Lit.neg scope.sel; blast_bool t formula ];
          scope.originals <- formula :: scope.originals)

let push t =
  Sat.cancel_to_root t.sat;
  t.scopes <- { sel = fresh t; originals = [] } :: t.scopes

let pop t =
  match t.scopes with
  | [] -> invalid_arg "Solver.pop: no open scope"
  | scope :: rest ->
      Sat.cancel_to_root t.sat;
      Sat.add_clause t.sat [ Lit.neg scope.sel ];
      t.scopes <- rest

let scope_depth t = List.length t.scopes

let reset_search t =
  Sat.reset_search t.sat;
  Telemetry.incr (Telemetry.get ()) "smt.search_resets"

type model = {
  bv : string -> Bitvec.t option;
  bool : string -> bool option;
}

type result = Sat of model | Unsat

let lit_model_value t l =
  let v = Sat.value t.sat (Lit.var l) in
  if Lit.sign l then v else not v

let extract_model t =
  (* Snapshot values now: the SAT solver's assignment is transient. *)
  let bvs = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name lits ->
      Hashtbl.replace bvs name
        (Bitvec.init (Array.length lits) (fun i -> lit_model_value t lits.(i))))
    t.bv_vars;
  let bools = Hashtbl.create 16 in
  Hashtbl.iter (fun name l -> Hashtbl.replace bools name (lit_model_value t l)) t.bool_vars;
  { bv = Hashtbl.find_opt bvs; bool = Hashtbl.find_opt bools }

(* Solver effort is accounted per [check] call: the SAT core's cumulative
   counters are diffed around the solve and published as telemetry, so the
   inner CDCL loops stay free of instrumentation. *)
let publish_effort before after =
  let tele = Telemetry.get () in
  if Telemetry.enabled tele then
    List.iter
      (fun (name, v) ->
        match List.assoc_opt name before with
        | Some v0 -> Telemetry.incr ~n:(v - v0) tele ("smt." ^ name)
        | None -> ())
      after

type verdict = V_sat of model | V_unsat of int list

type canonical_var = C_bool of string | C_bv of string

(* Decision order realizing the lexicographically minimal model over the
   named variables: booleans prefer false, bitvectors prefer 0 with the most
   significant bit decided first. Names the solver has never blasted are
   skipped — such variables are unconstrained and read back as absent, which
   extraction treats as zero, so the skip agrees with the preference. *)
let canonical_order t canonical =
  let lits = ref [] in
  List.iter
    (fun c ->
      match c with
      | C_bool name -> (
          match Hashtbl.find_opt t.bool_vars name with
          | Some l -> lits := Lit.neg l :: !lits
          | None -> ())
      | C_bv name -> (
          match Hashtbl.find_opt t.bv_vars name with
          | Some arr ->
              (* Bit 0 is the least significant: deciding high bits first
                 makes "lexicographically minimal" numerically minimal. *)
              for i = Array.length arr - 1 downto 0 do
                lits := Lit.neg arr.(i) :: !lits
              done
          | None -> ()))
    canonical;
  Array.of_list (List.rev !lits)

(* Evaluate an asserted or assumed formula under a model, reading
   absent variables as zero/false — the same completion extraction uses. *)
let eval_original model formula =
  let widths = Hashtbl.create 16 in
  List.iter (fun (name, w) -> Hashtbl.replace widths name w) (Term.bv_vars formula);
  let env =
    { Term.bv_of =
        (fun name ->
          match model.bv name with
          | Some v -> v
          | None -> Bitvec.zero (try Hashtbl.find widths name with Not_found -> 1));
      bool_of = (fun name -> match model.bool name with Some b -> b | None -> false) }
  in
  Term.eval_bool env formula

let self_check t model assumptions =
  let check_one what formula =
    if not (eval_original model formula) then
      raise
        (Model_mismatch
           (Format.asprintf "%s not satisfied by returned model: %a" what
              Term.pp_bool formula))
  in
  List.iter (check_one "asserted formula") t.root_originals;
  List.iter
    (fun scope -> List.iter (check_one "scoped formula") scope.originals)
    t.scopes;
  List.iter (check_one "assumption") assumptions

(* One search per check. With [canonical], the search itself is the
   ordered one: it is a complete CDCL search under the same assumptions, so
   it returns the same verdict and the same kind of final-conflict core as
   a VSIDS search would, and its SAT model is already the lex-min witness.
   The phases are spans under [smt.check]: [smt.blast] (assumptions to
   literals), [smt.search] (the CDCL call) and [smt.model] (extraction). *)
let check_verdict ?(assumptions = []) ?canonical t =
  let tele = Telemetry.get () in
  Telemetry.with_span tele "smt.check" (fun () ->
      Sat.cancel_to_root t.sat;
      Telemetry.incr ~n:(Sat.num_learned t.sat) tele "smt.clauses_reused";
      let vars_before = Sat.num_vars t.sat in
      (* Blasted as given, like asserts: a conjunct already seen by an
         earlier check or assert costs a hash lookup in the Tseitin memo. *)
      let assumption_lits =
        Telemetry.with_span tele "smt.blast" (fun () ->
            List.map (fun a -> blast_bool t a) assumptions)
      in
      if Sat.num_vars t.sat = vars_before then
        Telemetry.incr tele "smt.incremental_hits";
      let selector_lits = List.rev_map (fun s -> s.sel) t.scopes in
      let sat_assumptions = List.rev_append selector_lits assumption_lits in
      let before = Sat.stats t.sat in
      let outcome =
        Telemetry.with_span tele "smt.search" (fun () ->
            let order = Option.map (canonical_order t) canonical in
            Sat.solve_with_assumptions ?order t.sat sat_assumptions)
      in
      let result =
        match outcome with
        | Sat.A_sat ->
            let model = Telemetry.with_span tele "smt.model" (fun () -> extract_model t) in
            if !check_models then self_check t model assumptions;
            V_sat model
        | Sat.A_unsat core ->
            (* Report which of the caller's assumptions were implicated;
               scope selectors are part of the asserted state, not of the
               query, so they are filtered out. An empty list means the
               asserted state alone (or the clause database) is unsat. *)
            let core_indices =
              List.mapi (fun i l -> (i, l)) assumption_lits
              |> List.filter_map (fun (i, l) ->
                     if List.memq l core then Some i else None)
            in
            V_unsat core_indices
      in
      publish_effort before (Sat.stats t.sat);
      Telemetry.incr tele "smt.checks";
      Telemetry.incr tele
        (match result with V_sat _ -> "smt.sat" | V_unsat _ -> "smt.unsat");
      result)

let check ?(assumptions = []) ?canonical t =
  match check_verdict ~assumptions ?canonical t with
  | V_sat model -> Sat model
  | V_unsat _ -> Unsat

let stats t =
  ("gates", t.n_gates) :: ("sat_vars", Sat.num_vars t.sat)
  :: ("scopes", List.length t.scopes) :: Sat.stats t.sat
