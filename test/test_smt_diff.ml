(* Property-based differential tests for the SMT stack.

   Every generated QF_BV formula (see {!Qgen}) is small enough to decide
   by exhaustive enumeration of the 2^12 variable assignments; that brute
   verdict is the ground truth every solver pipeline is judged against:

     - a fresh solver per formula (assert + check),
     - a shared solver taking the formula as an assumption,
     - a shared solver using push / assert / pop scopes,
     - a shared solver assuming the formula conjunct-by-conjunct, with the
       reported unsat core re-checked against enumeration,
     - the canonical check of the formula asserted into a fresh solver,
       assumed on a shared solver, and asserted in nested push scopes on
       that shared solver, each model equal to the enumerated minimum,
     - canonical checks with part of the formula asserted in a scope, whose
       unsat cores (with the asserted part) must be unsat by enumeration.

   Satisfying models are re-evaluated concretely (and [Solver.check_models]
   is on for the whole suite, so the solver additionally self-checks every
   model against the original terms). The preprocessor must preserve the value of the formula
   on every assignment, and cone-of-influence restriction must be implied
   by the original.

   Failures shrink to a locally minimal reproducer and report the seed.

   Environment knobs (the Makefile's check-smt target uses them):
     SWITCHV_QGEN_SEED     base seed (default 1)
     SWITCHV_QGEN_COUNT    formulas per property (default 500)
     SWITCHV_QGEN_SOAK_MS  extra randomized soak time (default 0) *)

module Bitvec = Switchv_bitvec.Bitvec
module Rng = Switchv_bitvec.Rng
module Term = Switchv_smt.Term
module Solver = Switchv_smt.Solver
module Clock = Switchv_telemetry.Telemetry.Clock

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let seed = env_int "SWITCHV_QGEN_SEED" 1
let count = env_int "SWITCHV_QGEN_COUNT" 500
let soak_ms = env_int "SWITCHV_QGEN_SOAK_MS" 0

let canonical =
  List.map (fun n -> Solver.C_bool n) Qgen.bool_universe
  @ List.map (fun (n, _) -> Solver.C_bv n) Qgen.bv_universe

(* Evaluate a solver model concretely: absent variables (never blasted)
   are unconstrained, so any fixed default is a valid completion. *)
let eval_under_model (m : Solver.model) formula =
  let env =
    { Term.bv_of =
        (fun n ->
          match m.bv n with
          | Some v -> v
          | None -> Bitvec.zero (List.assoc n Qgen.bv_universe));
      bool_of = (fun n -> Option.value ~default:false (m.bool n)) }
  in
  Term.eval_bool env formula

(* --- the property runner ------------------------------------------------- *)

(* A property maps a formula to [Some complaint] on failure. The runner
   generates [count] formulas; a failure shrinks to a locally minimal
   reproducer before reporting, so the Alcotest message is actionable. *)
let run_property ~name ~seed ~count prop =
  let guarded f =
    try prop f with
    | Alcotest.Test_error -> raise Alcotest.Test_error
    | e -> Some (Printf.sprintf "raised %s" (Printexc.to_string e))
  in
  let rng = Rng.create seed in
  for i = 1 to count do
    let f = Qgen.gen_formula rng in
    match guarded f with
    | None -> ()
    | Some complaint ->
        let minimal = Qgen.shrink ~still_fails:(fun g -> guarded g <> None) f in
        let complaint =
          match guarded minimal with Some c -> c | None -> complaint
        in
        Alcotest.failf
          "%s failed on formula %d/%d (SWITCHV_QGEN_SEED=%d): %s@.full term: \
           %s@.minimal reproducer: %s"
          name i count seed complaint (Qgen.to_string f) (Qgen.to_string minimal)
  done

(* --- properties ----------------------------------------------------------- *)

let verdict_to_string = function true -> "SAT" | false -> "UNSAT"

(* Run [k] with [formula] asserted in a fresh scope of [s]. *)
let in_scope s formula k =
  Solver.push s;
  Fun.protect
    ~finally:(fun () -> Solver.pop s)
    (fun () ->
      Solver.assert_formula s formula;
      k ())

(* Shared solvers accumulate state across formulas on purpose — reusing
   learned clauses and Tseitin memos across unrelated queries is exactly
   the surface the incremental pipeline relies on. *)
let shared_assume = Solver.create ()
let shared_scoped = Solver.create ()
let shared_conjuncts = Solver.create ()

let prop_verdicts f =
  let brute = Qgen.brute_sat f in
  let complain mode got =
    Some
      (Printf.sprintf "%s says %s, enumeration says %s" mode
         (verdict_to_string got) (verdict_to_string brute))
  in
  let scratch =
    let s = Solver.create () in
    Solver.assert_formula s f;
    match Solver.check s with Solver.Sat _ -> true | Solver.Unsat -> false
  in
  if scratch <> brute then complain "fresh solver" scratch
  else
    let assumed =
      match Solver.check ~assumptions:[ f ] shared_assume with
      | Solver.Sat _ -> true
      | Solver.Unsat -> false
    in
    if assumed <> brute then complain "shared solver (assumption)" assumed
    else begin
      let scoped =
        in_scope shared_scoped f (fun () ->
            match Solver.check shared_scoped with
            | Solver.Sat _ -> true
            | Solver.Unsat -> false)
      in
      if scoped <> brute then complain "shared solver (push/pop)" scoped
      else
        let conjuncts = Term.flatten_conj f in
        match Solver.check_verdict ~assumptions:conjuncts shared_conjuncts with
        | Solver.V_sat m ->
            if not brute then complain "shared solver (conjuncts)" true
            else if not (eval_under_model m f) then
              Some "conjunct-assumption model does not satisfy the formula"
            else None
        | Solver.V_unsat core ->
            if brute then complain "shared solver (conjuncts)" false
            else
              (* The implicated conjunct subset must itself be unsat — that
                 is the contract packetgen's cascade skipping relies on. *)
              let implicated =
                List.filteri (fun i _ -> List.mem i core) conjuncts
              in
              if Qgen.brute_sat (Term.conj implicated) then
                Some
                  (Printf.sprintf
                     "unsat core (positions %s) is satisfiable by enumeration"
                     (String.concat "," (List.map string_of_int core)))
              else None
    end

(* [Some complaint] unless [m] equals the enumerated lexicographic minimum
   [best]. Variables the solver never blasted (the formula folded them
   away, or never mentioned them) are unconstrained; their lexicographically
   minimal completion is the zero/false default — the same default packet
   extraction uses. The completed model must therefore equal the minimum on
   the WHOLE universe, not just the mentioned variables. *)
let canonical_mismatch tag (best : Qgen.assignment) (m : Solver.model) =
  let bv_mismatch =
    List.find_map
      (fun (n, w) ->
        let expect = List.assoc n best.Qgen.a_bv in
        let got = Option.value ~default:(Bitvec.zero w) (m.Solver.bv n) in
        if Bitvec.equal got expect then None
        else
          Some
            (Printf.sprintf "%s: canonical %s = %s, enumeration %s" tag n
               (Bitvec.to_hex_string got) (Bitvec.to_hex_string expect)))
      Qgen.bv_universe
  in
  match bv_mismatch with
  | Some e -> Some e
  | None ->
      List.find_map
        (fun n ->
          let expect = List.assoc n best.Qgen.a_bool in
          let got = Option.value ~default:false (m.Solver.bool n) in
          if got = expect then None
          else
            Some
              (Printf.sprintf "%s: canonical %s = %b, enumeration %b" tag n got
                 expect))
        Qgen.bool_universe

let shared_canonical = Solver.create ()

(* Three ways to pose [f], each checked against enumeration: asserted into
   a fresh solver, assumed on a shared solver, and asserted in push scopes
   on that same shared solver — the first conjunct in an outer scope, the
   rest in a nested one — where scoped asserts reuse the Tseitin nodes of
   earlier formulas. *)
let prop_canonical f =
  let s = shared_canonical in
  let fresh =
    let s = Solver.create () in
    Solver.assert_formula s f;
    Solver.check ~canonical s
  in
  let shared = Solver.check ~assumptions:[ f ] ~canonical s in
  let scoped =
    let check () = Solver.check ~canonical s in
    match Term.flatten_conj f with
    | [] -> check ()
    | [ c ] -> in_scope s c check
    | c :: rest -> in_scope s c (fun () -> in_scope s (Term.conj rest) check)
  in
  let answers = [ ("fresh", fresh); ("shared", shared); ("scoped", scoped) ] in
  if Solver.scope_depth s <> 0 then Some "scopes left open"
  else
    match Qgen.brute_canonical f with
    | None ->
        List.find_map
          (fun (tag, r) ->
            match r with
            | Solver.Unsat -> None
            | Solver.Sat _ -> Some (tag ^ ": solver says SAT, enumeration says UNSAT"))
          answers
    | Some best ->
        List.find_map
          (fun (tag, r) ->
            match r with
            | Solver.Unsat -> Some (tag ^ ": solver says UNSAT, enumeration says SAT")
            | Solver.Sat m -> canonical_mismatch tag best m)
          answers

(* Core soundness under canonical checks. The first conjunct of [f] is the
   asserted state (in a scope); the other conjuncts are assumptions, plus
   pins of some variables to values derived from [f], so that assumption
   lists are long and often fail. Every core an ordered search reports,
   conjoined with the asserted state, must be unsat by enumeration; a sat
   answer must be the enumerated minimum. *)
let shared_core_canonical = Solver.create ()

let prop_core_canonical f =
  let s = shared_core_canonical in
  let asserted, rest =
    match Term.flatten_conj f with [] -> (Term.tru, []) | c :: rest -> (c, rest)
  in
  let h = Hashtbl.hash (Qgen.to_string f) in
  let pins =
    List.concat
      (List.mapi
         (fun i (n, w) ->
           if (h lsr (16 + i)) land 1 = 0 then []
           else
             [ Term.eq (Term.var n w)
                 (Term.of_int ~width:w ((h lsr (4 * i)) land ((1 lsl w) - 1))) ])
         Qgen.bv_universe)
  in
  let assumptions = rest @ pins in
  in_scope s asserted (fun () ->
      match
        ( Solver.check_verdict ~assumptions ~canonical s,
          Qgen.brute_canonical (Term.conj (asserted :: assumptions)) )
      with
      | Solver.V_sat _, None -> Some "solver says SAT, enumeration says UNSAT"
      | Solver.V_sat m, Some best -> canonical_mismatch "core-mode" best m
      | Solver.V_unsat _, Some _ -> Some "solver says UNSAT, enumeration says SAT"
      | Solver.V_unsat core, None ->
          let implicated = List.filteri (fun i _ -> List.mem i core) assumptions in
          if Qgen.brute_sat (Term.conj (asserted :: implicated)) then
            Some
              (Printf.sprintf
                 "canonical unsat core (positions %s) plus the asserted state \
                  is satisfiable by enumeration"
                 (String.concat "," (List.map string_of_int core)))
          else None)

let prop_preprocess f =
  let f', _ = Term.preprocess f in
  let differs =
    List.find_opt
      (fun a ->
        let env = Qgen.env_of a in
        Term.eval_bool env f <> Term.eval_bool env f')
      (Lazy.force Qgen.assignments)
  in
  match differs with
  | None -> None
  | Some _ ->
      Some
        (Printf.sprintf "preprocess changed the formula's value: %s"
           (Qgen.to_string f'))

let prop_cone f =
  let f', _ = Term.preprocess ~roots:[ "x" ] f in
  let violating =
    List.find_opt
      (fun a ->
        let env = Qgen.env_of a in
        Term.eval_bool env f && not (Term.eval_bool env f'))
      (Lazy.force Qgen.assignments)
  in
  match violating with
  | None -> None
  | Some _ ->
      Some
        (Printf.sprintf "cone restriction not implied by the original: %s"
           (Qgen.to_string f'))

(* --- Alcotest wiring ------------------------------------------------------ *)

let test_verdicts () =
  run_property ~name:"verdict agreement" ~seed ~count prop_verdicts

let test_canonical () =
  run_property ~name:"canonical models" ~seed:(seed + 1) ~count prop_canonical

let test_core_canonical () =
  run_property ~name:"canonical unsat cores" ~seed:(seed + 5) ~count
    prop_core_canonical

let test_preprocess () =
  run_property ~name:"preprocess equivalence" ~seed:(seed + 2) ~count
    prop_preprocess

let test_cone () =
  run_property ~name:"cone of influence" ~seed:(seed + 3) ~count prop_cone

(* Time-boxed randomized soak: keeps drawing fresh seeds until the budget
   runs out. Off by default (SWITCHV_QGEN_SOAK_MS=0) so dune runtest stays
   deterministic; make check-smt runs it with a couple of seconds. *)
let test_soak () =
  let deadline = Clock.now () +. (float_of_int soak_ms /. 1000.) in
  let round = ref 0 in
  while Clock.now () < deadline do
    incr round;
    let round_seed = (seed * 1_000_003) + !round in
    run_property ~name:"soak verdicts" ~seed:round_seed ~count:25 prop_verdicts;
    run_property ~name:"soak canonical" ~seed:(round_seed + 7919) ~count:10
      prop_canonical;
    run_property ~name:"soak canonical unsat cores" ~seed:(round_seed + 1299709)
      ~count:10 prop_core_canonical
  done

let () =
  Solver.check_models := true;
  Alcotest.run "smt-diff"
    [ ( "differential",
        [ Alcotest.test_case "verdict agreement vs enumeration" `Quick
            test_verdicts;
          Alcotest.test_case "canonical models vs enumeration" `Quick
            test_canonical;
          Alcotest.test_case "canonical unsat cores are unsat" `Quick
            test_core_canonical;
          Alcotest.test_case "preprocess preserves every assignment" `Quick
            test_preprocess;
          Alcotest.test_case "cone restriction is implied" `Quick test_cone ] );
      ("soak", [ Alcotest.test_case "randomized soak" `Slow test_soak ]) ]
