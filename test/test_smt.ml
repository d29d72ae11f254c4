(* Tests for the SAT core, the term language, and the bit-blasting solver.
   The key property: [Solver.check] agrees with brute-force/reference
   evaluation of the same formula. *)

module Bitvec = Switchv_bitvec.Bitvec
module Rng = Switchv_bitvec.Rng
module Sat = Switchv_smt.Sat
module Term = Switchv_smt.Term
module Solver = Switchv_smt.Solver
module Telemetry = Switchv_telemetry.Telemetry

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* --- SAT core ----------------------------------------------------------- *)

let lit s v sign = ignore s; Sat.Lit.make v sign

let test_sat_trivial () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  Sat.add_clause s [ lit s v true ];
  check_bool "unit sat" true (Sat.solve s = Sat.Sat);
  check_bool "model" true (Sat.value s v)

let test_sat_conflict () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  Sat.add_clause s [ lit s v true ];
  Sat.add_clause s [ lit s v false ];
  check_bool "x and not x unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_three_coloring_like () =
  (* (a | b) & (~a | b) & (a | ~b) is satisfied only by a=b=true. *)
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ lit s a true; lit s b true ];
  Sat.add_clause s [ lit s a false; lit s b true ];
  Sat.add_clause s [ lit s a true; lit s b false ];
  check_bool "sat" true (Sat.solve s = Sat.Sat);
  check_bool "a" true (Sat.value s a);
  check_bool "b" true (Sat.value s b)

let test_sat_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: unsat. Variables p_{i,h}. *)
  let s = Sat.create () in
  let v = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Sat.new_var s)) in
  for i = 0 to 2 do
    Sat.add_clause s [ lit s v.(i).(0) true; lit s v.(i).(1) true ]
  done;
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        Sat.add_clause s [ lit s v.(i).(h) false; lit s v.(j).(h) false ]
      done
    done
  done;
  check_bool "pigeonhole unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_assumptions () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ lit s a false; lit s b true ];
  (* a -> b *)
  check_bool "sat under a" true
    (Sat.solve ~assumptions:[ lit s a true ] s = Sat.Sat);
  check_bool "b forced" true (Sat.value s b);
  check_bool "sat under a & ~b fails" true
    (Sat.solve ~assumptions:[ lit s a true; lit s b false ] s = Sat.Unsat);
  (* Solver still usable after assumption failure. *)
  check_bool "still sat without assumptions" true (Sat.solve s = Sat.Sat)

let test_sat_reset_search () =
  (* Pigeonhole 5 into 4, every clause guarded by a selector: unsat under
     the selector, sat without it, and refuting it takes learning. *)
  let s = Sat.create () in
  let sel = Sat.new_var s in
  let guarded c = Sat.add_clause s (lit s sel false :: c) in
  let v = Array.init 5 (fun _ -> Array.init 4 (fun _ -> Sat.new_var s)) in
  for i = 0 to 4 do
    guarded (List.init 4 (fun h -> lit s v.(i).(h) true))
  done;
  for h = 0 to 3 do
    for i = 0 to 4 do
      for j = i + 1 to 4 do
        guarded [ lit s v.(i).(h) false; lit s v.(j).(h) false ]
      done
    done
  done;
  let under_sel () = Sat.solve ~assumptions:[ lit s sel true ] s in
  check_bool "unsat under the selector" true (under_sel () = Sat.Unsat);
  check_bool "learned clauses retained" true (Sat.num_learned s > 0);
  let learned () = List.assoc "learned" (Sat.stats s) in
  let learned_before = learned () in
  Sat.reset_search s;
  check_int "no learned clause after a reset" 0 (Sat.num_learned s);
  check_int "learned counter kept" learned_before (learned ());
  check_bool "still unsat under the selector" true (under_sel () = Sat.Unsat);
  check_bool "sat without it" true (Sat.solve s = Sat.Sat)

let test_sat_random_3sat_vs_bruteforce () =
  (* Cross-check on many small random 3-SAT instances. *)
  let rng = Rng.create 2022 in
  for _ = 1 to 100 do
    let nvars = 4 + Rng.int rng 5 in
    let nclauses = 3 + Rng.int rng 25 in
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ -> (Rng.int rng nvars, Rng.bool rng)))
    in
    let brute_sat =
      let rec try_assign i assign =
        if i = nvars then
          List.for_all
            (fun cl -> List.exists (fun (v, sign) -> assign.(v) = sign) cl)
            clauses
        else begin
          assign.(i) <- true;
          try_assign (i + 1) assign
          ||
          (assign.(i) <- false;
           try_assign (i + 1) assign)
        end
      in
      try_assign 0 (Array.make nvars false)
    in
    let s = Sat.create () in
    let vars = Array.init nvars (fun _ -> Sat.new_var s) in
    List.iter
      (fun cl -> Sat.add_clause s (List.map (fun (v, sign) -> lit s vars.(v) sign) cl))
      clauses;
    let solver_sat = Sat.solve s = Sat.Sat in
    check_bool "solver agrees with brute force" brute_sat solver_sat;
    (* If sat, the model must satisfy every clause. *)
    if solver_sat then
      List.iter
        (fun cl ->
          check_bool "model satisfies clause" true
            (List.exists (fun (v, sign) -> Sat.value s vars.(v) = sign) cl))
        clauses
  done

(* --- term evaluation ---------------------------------------------------- *)

let c8 n = Term.of_int ~width:8 n

let test_term_const_fold () =
  (* Smart constructors fold constants away. *)
  (match Term.bvadd (c8 1) (c8 2) with
  | Term.Bv_const c -> check_int "1+2" 3 (Bitvec.to_int_exn c)
  | _ -> Alcotest.fail "expected constant");
  check_bool "eq folds true" true (Term.eq (c8 5) (c8 5) = Term.B_true);
  check_bool "eq folds false" true (Term.eq (c8 5) (c8 6) = Term.B_false);
  check_bool "and true elides" true (Term.and_ Term.tru (Term.bvar "x") = Term.bvar "x");
  check_bool "or true absorbs" true (Term.or_ Term.tru (Term.bvar "x") = Term.B_true);
  let x = Term.var "x" 8 in
  check_bool "x & 0 = 0" true (Term.bvand x (c8 0) = c8 0);
  check_bool "x + 0 = x" true (Term.bvadd x (c8 0) == x)

let test_term_eval () =
  let x = Term.var "x" 8 and y = Term.var "y" 8 in
  let env =
    { Term.bv_of =
        (function
        | "x" -> Bitvec.of_int ~width:8 12
        | "y" -> Bitvec.of_int ~width:8 30
        | _ -> assert false);
      bool_of = (fun _ -> assert false) }
  in
  check_int "x+y" 42 (Bitvec.to_int_exn (Term.eval_bv env (Term.bvadd x y)));
  check_bool "x < y" true (Term.eval_bool env (Term.ult x y));
  check_bool "ite" true
    (Bitvec.to_int_exn
       (Term.eval_bv env (Term.ite (Term.ult x y) x y))
    = 12)

let test_term_vars () =
  let x = Term.var "x" 8 and y = Term.var "y" 16 in
  let f = Term.and_ (Term.eq x (c8 1)) (Term.eq y (Term.of_int ~width:16 2)) in
  let vars = Term.bv_vars f in
  check_int "two vars" 2 (List.length vars);
  check_bool "x present" true (List.mem ("x", 8) vars);
  check_bool "y present" true (List.mem ("y", 16) vars)

(* --- solver end-to-end --------------------------------------------------- *)

let solve_one formula =
  let s = Solver.create () in
  Solver.assert_formula s formula;
  Solver.check s

let test_solver_simple_eq () =
  let x = Term.var "x" 8 in
  match solve_one (Term.eq x (c8 42)) with
  | Solver.Sat m ->
      (match m.Solver.bv "x" with
      | Some v -> check_int "x = 42" 42 (Bitvec.to_int_exn v)
      | None -> Alcotest.fail "no model for x")
  | Solver.Unsat -> Alcotest.fail "expected sat"

let test_solver_unsat () =
  let x = Term.var "x" 8 in
  check_bool "x=1 & x=2 unsat" true
    (solve_one (Term.and_ (Term.eq x (c8 1)) (Term.eq x (c8 2))) = Solver.Unsat)

let test_solver_add () =
  (* x + y = 10 & x = 3 ==> y = 7 *)
  let x = Term.var "x" 8 and y = Term.var "y" 8 in
  let f = Term.and_ (Term.eq (Term.bvadd x y) (c8 10)) (Term.eq x (c8 3)) in
  match solve_one f with
  | Solver.Sat m ->
      check_int "y" 7 (Bitvec.to_int_exn (Option.get (m.Solver.bv "y")))
  | Solver.Unsat -> Alcotest.fail "expected sat"

let test_solver_ult_bounds () =
  (* x < 1 means x = 0 *)
  let x = Term.var "x" 4 in
  (match solve_one (Term.ult x (Term.of_int ~width:4 1)) with
  | Solver.Sat m ->
      check_int "x = 0" 0 (Bitvec.to_int_exn (Option.get (m.Solver.bv "x")))
  | Solver.Unsat -> Alcotest.fail "expected sat");
  (* nothing is < 0 *)
  check_bool "x < 0 unsat" true
    (solve_one (Term.ult x (Term.of_int ~width:4 0)) = Solver.Unsat)

let test_solver_mul () =
  (* x * 3 = 15 over 8 bits: x = 5 or x = 91 or x = 177 (mod 256 solutions). *)
  let x = Term.var "x" 8 in
  match solve_one (Term.eq (Term.bvmul x (c8 3)) (c8 15)) with
  | Solver.Sat m ->
      let v = Bitvec.to_int_exn (Option.get (m.Solver.bv "x")) in
      check_int "x*3 mod 256" 15 (v * 3 mod 256)
  | Solver.Unsat -> Alcotest.fail "expected sat"

let test_solver_assumptions_incremental () =
  (* Program-once, goals-as-assumptions: the p4-symbolic usage pattern. *)
  let s = Solver.create () in
  let x = Term.var "x" 8 in
  Solver.assert_formula s (Term.ult x (c8 100));
  let goal1 = Term.eq x (c8 50) in
  let goal2 = Term.eq x (c8 150) in
  (match Solver.check ~assumptions:[ goal1 ] s with
  | Solver.Sat m -> check_int "goal1" 50 (Bitvec.to_int_exn (Option.get (m.Solver.bv "x")))
  | Solver.Unsat -> Alcotest.fail "goal1 should be sat");
  check_bool "goal2 unsat" true (Solver.check ~assumptions:[ goal2 ] s = Solver.Unsat);
  (* And after a failed assumption, other goals still work. *)
  (match Solver.check ~assumptions:[ Term.eq x (c8 99) ] s with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "99 < 100 should be sat")

(* [smt.blast], [smt.search] and [smt.model] are phases of [smt.check]:
   under a clock that ticks on every read, each phase's total is strictly
   inside its parent's, and the phase counts follow the verdicts. *)
let test_solver_phase_spans () =
  let ticks = ref 0. in
  let tele =
    Telemetry.create ~clock:(fun () -> ticks := !ticks +. 1.; !ticks) ()
  in
  let n_sat, n_checks =
    Telemetry.with_registry tele (fun () ->
        let s = Solver.create () in
        let x = Term.var "x" 8 and y = Term.var "y" 8 in
        Solver.assert_formula s (Term.ult x (c8 100));
        let canonical = [ Solver.C_bv "x"; Solver.C_bv "y" ] in
        let goals =
          [ [ Term.eq (Term.bvadd x y) (c8 7) ];
            [ Term.eq x (c8 150) ];
            [ Term.ult y x; Term.eq y (c8 42) ] ]
        in
        Solver.push s;
        Solver.assert_formula s (Term.ult y (c8 200));
        let verdicts =
          List.map
            (fun assumptions -> Solver.check_verdict ~assumptions ~canonical s)
            goals
          @ [ Solver.check_verdict ~assumptions:(List.hd goals) s ]
        in
        Solver.pop s;
        ( List.length
            (List.filter (function Solver.V_sat _ -> true | _ -> false) verdicts),
          List.length verdicts ))
  in
  let snap = Telemetry.snapshot tele in
  let hist name =
    match List.assoc_opt name snap.Telemetry.snap_histograms with
    | Some h -> h
    | None -> Alcotest.failf "no %s span" name
  in
  let sum name = (hist name).Telemetry.hs_sum in
  let count name = (hist name).Telemetry.hs_count in
  check_int "checks" n_checks (count "smt.check");
  check_int "asserts" 2 (count "smt.assert");
  check_int "one blast per check" n_checks (count "smt.blast");
  check_int "one search per check" n_checks (count "smt.search");
  check_int "one model per sat check" n_sat (count "smt.model");
  check_bool "some checks unsat" true (n_sat < n_checks);
  check_bool "phases sum within smt.check" true
    (sum "smt.blast" +. sum "smt.search" +. sum "smt.model" < sum "smt.check")

let test_solver_ternary_match () =
  let key = Term.var "key" 32 in
  let value = Bitvec.of_int64 ~width:32 0x0A000000L in
  let mask = Bitvec.prefix_mask ~width:32 8 in
  match solve_one (Term.matches_ternary key ~value ~mask) with
  | Solver.Sat m ->
      let v = Option.get (m.Solver.bv "key") in
      check_bool "model matches the prefix" true
        (Bitvec.equal (Bitvec.logand v mask) value)
  | Solver.Unsat -> Alcotest.fail "expected sat"

(* Property: the solver's model satisfies the formula per reference
   evaluation, on randomly generated formulas. *)

let gen_formula rng =
  (* Random terms over variables x,y,z of width 8. *)
  let vars = [| Term.var "x" 8; Term.var "y" 8; Term.var "z" 8 |] in
  let rec gen_bv depth =
    if depth = 0 then
      if Rng.bool rng then vars.(Rng.int rng 3)
      else Term.of_int ~width:8 (Rng.int rng 256)
    else
      match Rng.int rng 8 with
      | 0 -> Term.bvadd (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | 1 -> Term.bvsub (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | 2 -> Term.bvand (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | 3 -> Term.bvor (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | 4 -> Term.bvxor (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | 5 -> Term.bvnot (gen_bv (depth - 1))
      | 6 -> Term.ite (gen_bool (depth - 1)) (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | _ -> Term.bvneg (gen_bv (depth - 1))
  and gen_bool depth =
    if depth = 0 then
      match Rng.int rng 3 with
      | 0 -> Term.eq (gen_bv 0) (gen_bv 0)
      | 1 -> Term.ult (gen_bv 0) (gen_bv 0)
      | _ -> Term.ule (gen_bv 0) (gen_bv 0)
    else
      match Rng.int rng 6 with
      | 0 -> Term.and_ (gen_bool (depth - 1)) (gen_bool (depth - 1))
      | 1 -> Term.or_ (gen_bool (depth - 1)) (gen_bool (depth - 1))
      | 2 -> Term.not_ (gen_bool (depth - 1))
      | 3 -> Term.eq (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | 4 -> Term.ult (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | _ -> Term.ule (gen_bv (depth - 1)) (gen_bv (depth - 1))
  in
  gen_bool (1 + Rng.int rng 3)

let test_solver_model_soundness () =
  let rng = Rng.create 77 in
  let n_sat = ref 0 in
  for _ = 1 to 60 do
    let f = gen_formula rng in
    match solve_one f with
    | Solver.Sat m ->
        incr n_sat;
        let env =
          { Term.bv_of =
              (fun name ->
                match m.Solver.bv name with
                | Some v -> v
                | None -> Bitvec.zero 8);
            bool_of =
              (fun name ->
                match m.Solver.bool name with Some b -> b | None -> false) }
        in
        check_bool "model satisfies formula" true (Term.eval_bool env f)
    | Solver.Unsat -> ()
  done;
  check_bool "at least some formulas were sat" true (!n_sat > 5)

let test_solver_completeness_small () =
  (* On width-3 single-variable formulas, UNSAT answers are cross-checked
     against exhaustive enumeration. *)
  let rng = Rng.create 99 in
  for _ = 1 to 60 do
    let x = Term.var "x" 3 in
    let k1 = Term.of_int ~width:3 (Rng.int rng 8) in
    let k2 = Term.of_int ~width:3 (Rng.int rng 8) in
    let f =
      Term.and_
        (Term.ult (Term.bvadd x k1) k2)
        (Term.not_ (Term.eq x k1))
    in
    let brute =
      List.exists
        (fun n ->
          let env =
            { Term.bv_of = (fun _ -> Bitvec.of_int ~width:3 n);
              bool_of = (fun _ -> false) }
          in
          Term.eval_bool env f)
        [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    in
    let solver = solve_one f <> Solver.Unsat in
    check_bool "solver agrees with enumeration" brute solver
  done

let () =
  Alcotest.run "smt"
    [ ("sat",
       [ Alcotest.test_case "trivial" `Quick test_sat_trivial;
         Alcotest.test_case "conflict" `Quick test_sat_conflict;
         Alcotest.test_case "forced assignment" `Quick test_sat_three_coloring_like;
         Alcotest.test_case "pigeonhole unsat" `Quick test_sat_pigeonhole_3_2;
         Alcotest.test_case "assumptions" `Quick test_sat_assumptions;
         Alcotest.test_case "reset search" `Quick test_sat_reset_search;
         Alcotest.test_case "random vs brute force" `Slow test_sat_random_3sat_vs_bruteforce ]);
      ("term",
       [ Alcotest.test_case "constant folding" `Quick test_term_const_fold;
         Alcotest.test_case "evaluation" `Quick test_term_eval;
         Alcotest.test_case "variable collection" `Quick test_term_vars ]);
      ("solver",
       [ Alcotest.test_case "simple eq" `Quick test_solver_simple_eq;
         Alcotest.test_case "unsat" `Quick test_solver_unsat;
         Alcotest.test_case "addition" `Quick test_solver_add;
         Alcotest.test_case "ult bounds" `Quick test_solver_ult_bounds;
         Alcotest.test_case "multiplication" `Quick test_solver_mul;
         Alcotest.test_case "incremental assumptions" `Quick test_solver_assumptions_incremental;
         Alcotest.test_case "check phase spans" `Quick test_solver_phase_spans;
         Alcotest.test_case "ternary match" `Quick test_solver_ternary_match;
         Alcotest.test_case "model soundness (random)" `Slow test_solver_model_soundness;
         Alcotest.test_case "completeness (small)" `Slow test_solver_completeness_small ]) ]
