module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix

type bv =
  | Bv_const of Bitvec.t
  | Bv_var of string * int
  | Bv_not of bv
  | Bv_neg of bv
  | Bv_and of bv * bv
  | Bv_or of bv * bv
  | Bv_xor of bv * bv
  | Bv_add of bv * bv
  | Bv_sub of bv * bv
  | Bv_mul of bv * bv
  | Bv_concat of bv * bv
  | Bv_extract of int * int * bv
  | Bv_zero_ext of int * bv
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

let rec bv_width = function
  | Bv_const c -> Bitvec.width c
  | Bv_var (_, w) -> w
  | Bv_not a | Bv_neg a -> bv_width a
  | Bv_and (a, _) | Bv_or (a, _) | Bv_xor (a, _)
  | Bv_add (a, _) | Bv_sub (a, _) | Bv_mul (a, _) -> bv_width a
  | Bv_concat (a, b) -> bv_width a + bv_width b
  | Bv_extract (hi, lo, _) -> hi - lo + 1
  | Bv_zero_ext (w, _) -> w
  | Bv_ite (_, a, _) -> bv_width a

let const c = Bv_const c
let var name w =
  if w < 1 then invalid_arg "Term.var: width must be >= 1";
  Bv_var (name, w)
let of_int ~width n = Bv_const (Bitvec.of_int ~width n)

let check2 name a b =
  if bv_width a <> bv_width b then
    invalid_arg (Printf.sprintf "Term.%s: width mismatch (%d vs %d)" name
                   (bv_width a) (bv_width b))

let bvnot = function
  | Bv_const c -> Bv_const (Bitvec.lognot c)
  | Bv_not a -> a
  | a -> Bv_not a

let bvneg = function
  | Bv_const c -> Bv_const (Bitvec.neg c)
  | a -> Bv_neg a

let bvand a b =
  check2 "bvand" a b;
  match (a, b) with
  | Bv_const x, Bv_const y -> Bv_const (Bitvec.logand x y)
  | (Bv_const c, o | o, Bv_const c) when Bitvec.is_zero c ->
      ignore o; Bv_const c
  | (Bv_const c, o | o, Bv_const c) when Bitvec.is_ones c -> o
  | _ -> Bv_and (a, b)

let bvor a b =
  check2 "bvor" a b;
  match (a, b) with
  | Bv_const x, Bv_const y -> Bv_const (Bitvec.logor x y)
  | (Bv_const c, o | o, Bv_const c) when Bitvec.is_zero c -> o
  | (Bv_const c, o | o, Bv_const c) when Bitvec.is_ones c ->
      ignore o; Bv_const c
  | _ -> Bv_or (a, b)

let bvxor a b =
  check2 "bvxor" a b;
  match (a, b) with
  | Bv_const x, Bv_const y -> Bv_const (Bitvec.logxor x y)
  | (Bv_const c, o | o, Bv_const c) when Bitvec.is_zero c -> o
  | _ -> Bv_xor (a, b)

let bvadd a b =
  check2 "bvadd" a b;
  match (a, b) with
  | Bv_const x, Bv_const y -> Bv_const (Bitvec.add x y)
  | (Bv_const c, o | o, Bv_const c) when Bitvec.is_zero c -> o
  | _ -> Bv_add (a, b)

let bvsub a b =
  check2 "bvsub" a b;
  match (a, b) with
  | Bv_const x, Bv_const y -> Bv_const (Bitvec.sub x y)
  | o, Bv_const c when Bitvec.is_zero c -> o
  | _ -> Bv_sub (a, b)

let bvmul a b =
  check2 "bvmul" a b;
  match (a, b) with
  | Bv_const x, Bv_const y -> Bv_const (Bitvec.mul x y)
  | (Bv_const c, o | o, Bv_const c) when Bitvec.is_zero c ->
      ignore o; Bv_const c
  | (Bv_const c, o | o, Bv_const c)
    when Bitvec.equal c (Bitvec.of_int ~width:(Bitvec.width c) 1) -> o
  | _ -> Bv_mul (a, b)

let concat a b =
  match (a, b) with
  | Bv_const x, Bv_const y -> Bv_const (Bitvec.concat x y)
  | _ -> Bv_concat (a, b)

let extract ~hi ~lo a =
  let w = bv_width a in
  if lo < 0 || hi >= w || hi < lo then invalid_arg "Term.extract: bad range";
  if lo = 0 && hi = w - 1 then a
  else match a with
    | Bv_const c -> Bv_const (Bitvec.extract ~hi ~lo c)
    | _ -> Bv_extract (hi, lo, a)

let zero_ext w a =
  let wa = bv_width a in
  if w < wa then invalid_arg "Term.zero_ext: narrower target";
  if w = wa then a
  else match a with
    | Bv_const c -> Bv_const (Bitvec.zero_extend w c)
    | _ -> Bv_zero_ext (w, a)

let tru = B_true
let fls = B_false
let bvar name = B_var name

let rec not_ = function
  | B_true -> B_false
  | B_false -> B_true
  | B_not b -> b
  | B_ite (c, a, b) -> B_ite (c, not_ a, not_ b)
  | b -> B_not b

let eq a b =
  check2 "eq" a b;
  match (a, b) with
  | Bv_const x, Bv_const y -> if Bitvec.equal x y then B_true else B_false
  | _ -> if a == b then B_true else B_eq (a, b)

let ult a b =
  check2 "ult" a b;
  match (a, b) with
  | Bv_const x, Bv_const y -> if Bitvec.ult x y then B_true else B_false
  | _ -> B_ult (a, b)

let ule a b =
  check2 "ule" a b;
  match (a, b) with
  | Bv_const x, Bv_const y -> if Bitvec.ule x y then B_true else B_false
  | _ -> if a == b then B_true else B_ule (a, b)

let ugt a b = ult b a
let uge a b = ule b a
let neq a b = not_ (eq a b)

let and_ a b =
  match (a, b) with
  | B_false, _ | _, B_false -> B_false
  | B_true, o | o, B_true -> o
  | _ -> if a == b then a else B_and (a, b)

let or_ a b =
  match (a, b) with
  | B_true, _ | _, B_true -> B_true
  | B_false, o | o, B_false -> o
  | _ -> if a == b then a else B_or (a, b)

let implies a b = or_ (not_ a) b

let iff a b =
  match (a, b) with
  | B_true, o | o, B_true -> o
  | B_false, o | o, B_false -> not_ o
  | _ -> if a == b then B_true else B_ite (a, b, not_ b)

let bite c a b =
  match c with
  | B_true -> a
  | B_false -> b
  | _ -> if a == b then a else B_ite (c, a, b)

let ite c a b =
  check2 "ite" a b;
  match c with
  | B_true -> a
  | B_false -> b
  | _ -> (match (a, b) with
          | Bv_const x, Bv_const y when Bitvec.equal x y -> a
          | _ -> if a == b then a else Bv_ite (c, a, b))

let conj l = List.fold_left and_ B_true l
let disj l = List.fold_left or_ B_false l

let matches_ternary key ~value ~mask =
  eq (bvand key (const mask)) (const (Bitvec.logand value mask))

let matches_prefix key p =
  let mask = Bitvec.prefix_mask ~width:(Prefix.width p) (Prefix.len p) in
  matches_ternary key ~value:(Prefix.value p) ~mask

type env = { bv_of : string -> Bitvec.t; bool_of : string -> bool }

let rec eval_bv env = function
  | Bv_const c -> c
  | Bv_var (name, w) ->
      let v = env.bv_of name in
      if Bitvec.width v <> w then
        invalid_arg (Printf.sprintf "Term.eval_bv: %s width mismatch" name);
      v
  | Bv_not a -> Bitvec.lognot (eval_bv env a)
  | Bv_neg a -> Bitvec.neg (eval_bv env a)
  | Bv_and (a, b) -> Bitvec.logand (eval_bv env a) (eval_bv env b)
  | Bv_or (a, b) -> Bitvec.logor (eval_bv env a) (eval_bv env b)
  | Bv_xor (a, b) -> Bitvec.logxor (eval_bv env a) (eval_bv env b)
  | Bv_add (a, b) -> Bitvec.add (eval_bv env a) (eval_bv env b)
  | Bv_sub (a, b) -> Bitvec.sub (eval_bv env a) (eval_bv env b)
  | Bv_mul (a, b) -> Bitvec.mul (eval_bv env a) (eval_bv env b)
  | Bv_concat (a, b) -> Bitvec.concat (eval_bv env a) (eval_bv env b)
  | Bv_extract (hi, lo, a) -> Bitvec.extract ~hi ~lo (eval_bv env a)
  | Bv_zero_ext (w, a) -> Bitvec.zero_extend w (eval_bv env a)
  | Bv_ite (c, a, b) -> if eval_bool env c then eval_bv env a else eval_bv env b

and eval_bool env = function
  | B_true -> true
  | B_false -> false
  | B_var name -> env.bool_of name
  | B_eq (a, b) -> Bitvec.equal (eval_bv env a) (eval_bv env b)
  | B_ult (a, b) -> Bitvec.ult (eval_bv env a) (eval_bv env b)
  | B_ule (a, b) -> Bitvec.ule (eval_bv env a) (eval_bv env b)
  | B_not a -> not (eval_bool env a)
  | B_and (a, b) -> eval_bool env a && eval_bool env b
  | B_or (a, b) -> eval_bool env a || eval_bool env b
  | B_ite (c, a, b) -> if eval_bool env c then eval_bool env a else eval_bool env b

let bv_vars formula =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let add name w =
    match Hashtbl.find_opt tbl name with
    | None ->
        Hashtbl.add tbl name w;
        order := (name, w) :: !order
    | Some w' ->
        if w <> w' then
          invalid_arg (Printf.sprintf "Term.bv_vars: %s used at widths %d and %d" name w w')
  in
  (* Memoize on physical identity to avoid exponential traversal of shared
     DAGs. *)
  let module Phys = Hashtbl.Make (struct
    type t = Obj.t
    let equal = ( == )
    let hash = Hashtbl.hash
  end) in
  let seen_bv = Phys.create 64 in
  let seen_bool = Phys.create 64 in
  let rec go_bv t =
    let key = Obj.repr t in
    if not (Phys.mem seen_bv key) then begin
      Phys.add seen_bv key ();
      match t with
      | Bv_const _ -> ()
      | Bv_var (name, w) -> add name w
      | Bv_not a | Bv_neg a | Bv_extract (_, _, a) | Bv_zero_ext (_, a) -> go_bv a
      | Bv_and (a, b) | Bv_or (a, b) | Bv_xor (a, b) | Bv_add (a, b)
      | Bv_sub (a, b) | Bv_mul (a, b) | Bv_concat (a, b) -> go_bv a; go_bv b
      | Bv_ite (c, a, b) -> go_bool c; go_bv a; go_bv b
    end
  and go_bool t =
    let key = Obj.repr t in
    if not (Phys.mem seen_bool key) then begin
      Phys.add seen_bool key ();
      match t with
      | B_true | B_false | B_var _ -> ()
      | B_eq (a, b) | B_ult (a, b) | B_ule (a, b) -> go_bv a; go_bv b
      | B_not a -> go_bool a
      | B_and (a, b) | B_or (a, b) -> go_bool a; go_bool b
      | B_ite (c, a, b) -> go_bool c; go_bool a; go_bool b
    end
  in
  go_bool formula;
  List.rev !order

module Phys = Hashtbl.Make (struct
  type t = Obj.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let bool_vars formula =
  let tbl : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let add name =
    if not (Hashtbl.mem tbl name) then begin
      Hashtbl.add tbl name ();
      order := name :: !order
    end
  in
  let seen = Phys.create 64 in
  let rec go_bv t =
    let key = Obj.repr t in
    if not (Phys.mem seen key) then begin
      Phys.add seen key ();
      match t with
      | Bv_const _ | Bv_var _ -> ()
      | Bv_not a | Bv_neg a | Bv_extract (_, _, a) | Bv_zero_ext (_, a) -> go_bv a
      | Bv_and (a, b) | Bv_or (a, b) | Bv_xor (a, b) | Bv_add (a, b)
      | Bv_sub (a, b) | Bv_mul (a, b) | Bv_concat (a, b) -> go_bv a; go_bv b
      | Bv_ite (c, a, b) -> go_bool c; go_bv a; go_bv b
    end
  and go_bool t =
    let key = Obj.repr t in
    if not (Phys.mem seen key) then begin
      Phys.add seen key ();
      match t with
      | B_true | B_false -> ()
      | B_var name -> add name
      | B_eq (a, b) | B_ult (a, b) | B_ule (a, b) -> go_bv a; go_bv b
      | B_not a -> go_bool a
      | B_and (a, b) | B_or (a, b) -> go_bool a; go_bool b
      | B_ite (c, a, b) -> go_bool c; go_bool a; go_bool b
    end
  in
  go_bool formula;
  List.rev !order

(* Distinct physical nodes reachable from [formula]; the DAG size that the
   bit-blaster's memo tables see. *)
let size formula =
  let seen = Phys.create 64 in
  let n = ref 0 in
  let visit key = if Phys.mem seen key then false else (Phys.add seen key (); incr n; true) in
  let rec go_bv t =
    if visit (Obj.repr t) then
      match t with
      | Bv_const _ | Bv_var _ -> ()
      | Bv_not a | Bv_neg a | Bv_extract (_, _, a) | Bv_zero_ext (_, a) -> go_bv a
      | Bv_and (a, b) | Bv_or (a, b) | Bv_xor (a, b) | Bv_add (a, b)
      | Bv_sub (a, b) | Bv_mul (a, b) | Bv_concat (a, b) -> go_bv a; go_bv b
      | Bv_ite (c, a, b) -> go_bool c; go_bv a; go_bv b
  and go_bool t =
    if visit (Obj.repr t) then
      match t with
      | B_true | B_false | B_var _ -> ()
      | B_eq (a, b) | B_ult (a, b) | B_ule (a, b) -> go_bv a; go_bv b
      | B_not a -> go_bool a
      | B_and (a, b) | B_or (a, b) -> go_bool a; go_bool b
      | B_ite (c, a, b) -> go_bool c; go_bool a; go_bool b
  in
  go_bool formula;
  !n

let flatten_conj formula =
  let rec go acc = function
    | B_and (a, b) -> go (go acc a) b
    | B_true -> acc
    | t -> t :: acc
  in
  List.rev (go [] formula)

let rec pp_bv fmt = function
  | Bv_const c -> Bitvec.pp fmt c
  | Bv_var (name, w) -> Format.fprintf fmt "%s:%d" name w
  | Bv_not a -> Format.fprintf fmt "~%a" pp_bv a
  | Bv_neg a -> Format.fprintf fmt "-%a" pp_bv a
  | Bv_and (a, b) -> Format.fprintf fmt "(%a & %a)" pp_bv a pp_bv b
  | Bv_or (a, b) -> Format.fprintf fmt "(%a | %a)" pp_bv a pp_bv b
  | Bv_xor (a, b) -> Format.fprintf fmt "(%a ^ %a)" pp_bv a pp_bv b
  | Bv_add (a, b) -> Format.fprintf fmt "(%a + %a)" pp_bv a pp_bv b
  | Bv_sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp_bv a pp_bv b
  | Bv_mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp_bv a pp_bv b
  | Bv_concat (a, b) -> Format.fprintf fmt "(%a ++ %a)" pp_bv a pp_bv b
  | Bv_extract (hi, lo, a) -> Format.fprintf fmt "%a[%d:%d]" pp_bv a hi lo
  | Bv_zero_ext (w, a) -> Format.fprintf fmt "zext%d(%a)" w pp_bv a
  | Bv_ite (c, a, b) ->
      Format.fprintf fmt "(if %a then %a else %a)" pp_bool c pp_bv a pp_bv b

and pp_bool fmt = function
  | B_true -> Format.pp_print_string fmt "true"
  | B_false -> Format.pp_print_string fmt "false"
  | B_var name -> Format.pp_print_string fmt name
  | B_eq (a, b) -> Format.fprintf fmt "(%a = %a)" pp_bv a pp_bv b
  | B_ult (a, b) -> Format.fprintf fmt "(%a < %a)" pp_bv a pp_bv b
  | B_ule (a, b) -> Format.fprintf fmt "(%a <= %a)" pp_bv a pp_bv b
  | B_not a -> Format.fprintf fmt "!%a" pp_bool a
  | B_and (a, b) -> Format.fprintf fmt "(%a && %a)" pp_bool a pp_bool b
  | B_or (a, b) -> Format.fprintf fmt "(%a || %a)" pp_bool a pp_bool b
  | B_ite (c, a, b) ->
      Format.fprintf fmt "(if %a then %a else %a)" pp_bool c pp_bool a pp_bool b
