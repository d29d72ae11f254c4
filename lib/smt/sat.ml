(* A MiniSat-style CDCL solver. Literal encoding: literal = 2*var for the
   positive phase, 2*var+1 for the negative phase. *)

module Lit = struct
  type t = int

  let make v sign = (v lsl 1) lor (if sign then 0 else 1)
  let var l = l lsr 1
  let sign l = l land 1 = 0
  let neg l = l lxor 1
  let pp fmt l = Format.fprintf fmt "%s%d" (if sign l then "" else "-") (var l)
end

(* Growable int/float vectors; OCaml arrays with doubling. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

  let create dummy = { data = Array.make 16 dummy; size = 0; dummy }

  let push t x =
    if t.size = Array.length t.data then begin
      let data = Array.make (2 * Array.length t.data) t.dummy in
      Array.blit t.data 0 data 0 t.size;
      t.data <- data
    end;
    t.data.(t.size) <- x;
    t.size <- t.size + 1

  let get t i = t.data.(i)
  let size t = t.size
  let shrink t n = t.size <- n

  (* Keep the elements satisfying [keep], in their order. *)
  let filter_in_place keep t =
    let j = ref 0 in
    for i = 0 to t.size - 1 do
      let x = t.data.(i) in
      if keep x then begin
        t.data.(!j) <- x;
        incr j
      end
    done;
    for i = !j to t.size - 1 do t.data.(i) <- t.dummy done;
    t.size <- !j
end

type clause = { lits : int array; learned : bool; mutable activity : float }

(* The reason of a decision, of a root fact, and of an unassigned variable;
   also "no conflict" from [propagate]. Compared by physical equality. *)
let dummy_clause = { lits = [||]; learned = false; activity = 0.0 }

(* Variable order: binary max-heap on activity, with position index. The
   activity array is typed [float array] throughout so comparisons compile
   to unboxed float compares. *)
module Heap = struct
  type t = {
    mutable heap : int array;       (* heap of variable indices *)
    mutable size : int;
    mutable pos : int array;        (* pos.(v) = index in heap, or -1 *)
  }

  let create () = { heap = Array.make 16 0; size = 0; pos = Array.make 16 (-1) }

  let ensure_var t v =
    if v >= Array.length t.pos then begin
      let pos = Array.make (max (2 * Array.length t.pos) (v + 1)) (-1) in
      Array.blit t.pos 0 pos 0 (Array.length t.pos);
      t.pos <- pos
    end

  let in_heap t v = v < Array.length t.pos && t.pos.(v) >= 0

  let swap t i j =
    let vi = t.heap.(i) and vj = t.heap.(j) in
    t.heap.(i) <- vj; t.heap.(j) <- vi;
    t.pos.(vj) <- i; t.pos.(vi) <- j

  let rec up t (act : float array) i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if act.(t.heap.(i)) > act.(t.heap.(p)) then begin
        swap t i p; up t act p
      end
    end

  let rec down t (act : float array) i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < t.size && act.(t.heap.(l)) > act.(t.heap.(!best)) then best := l;
    if r < t.size && act.(t.heap.(r)) > act.(t.heap.(!best)) then best := r;
    if !best <> i then begin swap t i !best; down t act !best end

  let insert t (act : float array) v =
    ensure_var t v;
    if not (in_heap t v) then begin
      if t.size = Array.length t.heap then begin
        let heap = Array.make (2 * Array.length t.heap) 0 in
        Array.blit t.heap 0 heap 0 t.size;
        t.heap <- heap
      end;
      t.heap.(t.size) <- v;
      t.pos.(v) <- t.size;
      t.size <- t.size + 1;
      up t act t.pos.(v)
    end

  let decrease t (act : float array) v = if in_heap t v then up t act t.pos.(v)

  let pop_max t (act : float array) =
    let v = t.heap.(0) in
    t.size <- t.size - 1;
    t.pos.(v) <- -1;
    if t.size > 0 then begin
      let last = t.heap.(t.size) in
      t.heap.(0) <- last;
      t.pos.(last) <- 0;
      down t act 0
    end;
    v

  let is_empty t = t.size = 0

  (* Variables [0, n) in index order: the heap a fresh solver builds by
     inserting them one by one while every activity is equal. *)
  let rebuild t n =
    if n > 0 then ensure_var t (n - 1);
    if n > Array.length t.heap then t.heap <- Array.make n 0;
    for v = 0 to n - 1 do
      t.heap.(v) <- v;
      t.pos.(v) <- v
    done;
    t.size <- n
end

type t = {
  mutable nvars : int;
  mutable assigns : int array;      (* -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : clause array;    (* [dummy_clause] when none *)
  mutable phase : bool array;       (* saved phase *)
  mutable activity : float array;
  mutable watches : clause Vec.t array;  (* indexed by literal *)
  clauses : clause Vec.t;
  trail : int Vec.t;                (* literal trail *)
  trail_lim : int Vec.t;            (* decision level boundaries *)
  mutable qhead : int;
  order : Heap.t;
  mutable order_head : int;         (* [order] positions below are assigned *)
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable seen : bool array;
  mutable ok : bool;                (* false once a top-level conflict found *)
  mutable n_live_learned : int;     (* learned clauses in [clauses] *)
  (* statistics *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learned : int;
}

let create () =
  { nvars = 0;
    assigns = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 dummy_clause;
    phase = Array.make 16 false;
    activity = Array.make 16 0.0;
    watches = Array.init 32 (fun _ -> Vec.create dummy_clause);
    clauses = Vec.create dummy_clause;
    trail = Vec.create 0;
    trail_lim = Vec.create 0;
    qhead = 0;
    order = Heap.create ();
    order_head = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    seen = Array.make 16 false;
    ok = true;
    n_live_learned = 0;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    n_learned = 0 }

let num_vars t = t.nvars

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  let n = Array.length t.assigns in
  if v >= n then begin
    let grow a fill =
      let b = Array.make (2 * n) fill in
      Array.blit a 0 b 0 n; b
    in
    t.assigns <- grow t.assigns (-1);
    t.level <- grow t.level 0;
    t.reason <- grow t.reason dummy_clause;
    t.phase <- grow t.phase false;
    t.activity <- grow t.activity 0.0;
    t.seen <- grow t.seen false;
    let w = Array.init (4 * n) (fun _ -> Vec.create dummy_clause) in
    Array.blit t.watches 0 w 0 (2 * n);
    t.watches <- w
  end;
  Heap.insert t.order t.activity v;
  v

let lit_value t l =
  let a = t.assigns.(Lit.var l) in
  if a < 0 then -1
  else if Lit.sign l then a
  else 1 - a

let decision_level t = Vec.size t.trail_lim

let enqueue t l reason =
  t.assigns.(Lit.var l) <- (if Lit.sign l then 1 else 0);
  t.level.(Lit.var l) <- decision_level t;
  t.reason.(Lit.var l) <- reason;
  Vec.push t.trail l

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  Heap.decrease t.order t.activity v

let var_decay t = t.var_inc <- t.var_inc /. 0.95

let watch t l c = Vec.push t.watches.(l) c

let attach_clause t c =
  (* Watch the first two literals. *)
  watch t (Lit.neg c.lits.(0)) c;
  watch t (Lit.neg c.lits.(1)) c

let add_clause t lits =
  if t.ok then begin
    (* Simplify: drop duplicate/false literals, detect tautologies. Only
       sound at level 0; callers add clauses before/between solves, where we
       restart from level 0 anyway, but literal values at level > 0 must be
       ignored. Clauses are a handful of literals, so duplicates are found
       by scanning the ones before; the kept literals keep their order. *)
    let at_top = decision_level t = 0 in
    let lits = Array.of_list (lits :> int list) in
    let n = Array.length lits in
    let kept = Array.make n 0 in
    let nkept = ref 0 in
    let taut = ref false in
    for i = 0 to n - 1 do
      let l = lits.(i) in
      let first = ref true in
      for j = 0 to i - 1 do
        if lits.(j) = l then first := false
        else if lits.(j) = Lit.neg l then taut := true
      done;
      if !first && not (at_top && lit_value t l = 0) then begin
        kept.(!nkept) <- l;
        incr nkept
      end
    done;
    if not !taut then begin
      let already_sat = ref false in
      if at_top then
        for i = 0 to !nkept - 1 do
          if lit_value t kept.(i) = 1 then already_sat := true
        done;
      if not !already_sat then
        match !nkept with
        | 0 -> t.ok <- false
        | 1 ->
            let l = kept.(0) in
            if at_top then begin
              match lit_value t l with
              | 1 -> ()
              | 0 -> t.ok <- false
              | _ -> enqueue t l dummy_clause
            end
            else begin
              (* Shouldn't happen in our usage; store as a clause with a
                 duplicated watch to stay safe. *)
              let c = { lits = [| l; l |]; learned = false; activity = 0.0 } in
              Vec.push t.clauses c;
              attach_clause t c
            end
        | k ->
            let c = { lits = Array.sub kept 0 k; learned = false; activity = 0.0 } in
            Vec.push t.clauses c;
            attach_clause t c
    end
  end

(* Propagate all enqueued facts. Returns the conflicting clause, or
   [dummy_clause] when there is none. This is the solver's hot loop: it
   allocates nothing (a watcher moves to another list only through
   [Vec.push], which allocates only when that list grows). *)
let propagate t =
  let conflict = ref dummy_clause in
  while !conflict == dummy_clause && t.qhead < Vec.size t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    let falsel = Lit.neg p in
    let ws = t.watches.(p) in
    (* [ws] itself never grows here: a clause moves to the list of a
       literal that is not false, and [p]'s list holds clauses watching a
       false literal. *)
    let data = ws.Vec.data in
    let n = Vec.size ws in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = data.(!i) in
      incr i;
      if !conflict != dummy_clause then begin
        (* Copy the remaining watchers unchanged. *)
        data.(!j) <- c;
        incr j
      end
      else begin
        let lits = c.lits in
        (* Make sure the false literal is lits.(1). *)
        if lits.(0) = falsel then begin
          lits.(0) <- lits.(1);
          lits.(1) <- falsel
        end;
        if lit_value t lits.(0) = 1 then begin
          (* Clause already satisfied; keep watching. *)
          data.(!j) <- c;
          incr j
        end
        else begin
          (* Look for a new literal to watch. *)
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && lit_value t lits.(!k) = 0 do incr k done;
          if !k < len then begin
            lits.(1) <- lits.(!k);
            lits.(!k) <- falsel;
            watch t (Lit.neg lits.(1)) c
          end
          else begin
            (* Unit or conflicting. *)
            data.(!j) <- c;
            incr j;
            if lit_value t lits.(0) = 0 then conflict := c
            else enqueue t lits.(0) c
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !conflict

(* First-UIP conflict analysis. Returns (learned clause lits, backjump level).
   learned.(0) is the asserting literal. *)
let analyze t confl =
  let learnt = ref [] in
  let seen = t.seen in
  let path = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (Vec.size t.trail - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    let c = !confl in
    assert (c != dummy_clause);
    if c.learned then c.activity <- c.activity +. t.cla_inc;
    let start = if !p = -1 then 0 else 1 in
    for k = start to Array.length c.lits - 1 do
      let q = c.lits.(k) in
      let v = Lit.var q in
      if (not seen.(v)) && t.level.(v) > 0 then begin
        var_bump t v;
        seen.(v) <- true;
        if t.level.(v) >= decision_level t then incr path
        else begin
          learnt := q :: !learnt;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    (* Select next literal to look at. *)
    while not seen.(Lit.var (Vec.get t.trail !idx)) do decr idx done;
    let l = Vec.get t.trail !idx in
    decr idx;
    p := l;
    confl := t.reason.(Lit.var l);
    seen.(Lit.var l) <- false;
    decr path;
    if !path <= 0 then continue := false
  done;
  let learnt = Lit.neg !p :: !learnt in
  (* Clear seen flags. *)
  List.iter (fun l -> t.seen.(Lit.var l) <- false) learnt;
  (Array.of_list learnt, !btlevel)

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = Lit.var l in
      t.phase.(v) <- Lit.sign l;
      t.assigns.(v) <- -1;
      t.reason.(v) <- dummy_clause;
      Heap.insert t.order t.activity v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- Vec.size t.trail;
    t.order_head <- 0
  end

let new_decision_level t = Vec.push t.trail_lim (Vec.size t.trail)

(* The unassigned variable of highest activity, or -1 when every variable
   is assigned. *)
let rec pick_branch_var t =
  if Heap.is_empty t.order then -1
  else begin
    let v = Heap.pop_max t.order t.activity in
    if t.assigns.(v) < 0 then v else pick_branch_var t
  end

(* Luby sequence (1 1 2 1 1 2 4 ...): luby i with i >= 1. *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

type result = Sat | Unsat
type assumption_result = A_sat | A_unsat of Lit.t list

exception Unsat_exn
exception Restart

(* MiniSat's analyzeFinal: [p] is an assumption literal found falsified at
   its decision point. Walk the trail above level 0 backwards from the
   (already enqueued) implication of [~p], expanding propagation reasons and
   collecting the decision literals reached — under assumption solving every
   decision at those levels is itself an assumption — into the unsat core.
   Literals implied at level 0 do not depend on assumptions and are skipped.
   Must run before [cancel_until]: it reads the live trail. *)
let analyze_final t p =
  let core = ref [ p ] in
  if decision_level t > 0 then begin
    let seen = t.seen in
    seen.(Lit.var p) <- true;
    let bound = Vec.get t.trail_lim 0 in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = Lit.var l in
      if seen.(v) then begin
        let c = t.reason.(v) in
        if c == dummy_clause then begin
          (* A decision above level 0: an assumption literal (possibly the
             negation of [p] itself when assumptions directly conflict). *)
          if l <> p then core := l :: !core
        end
        else
          Array.iter
            (fun q ->
              if t.level.(Lit.var q) > 0 then seen.(Lit.var q) <- true)
            c.lits;
        seen.(v) <- false
      end
    done;
    seen.(Lit.var p) <- false
  end;
  !core

(* The first literal in [order] whose variable is still unassigned, or -1.
   Decisions taken from [order] always use the literal's own polarity (no
   saved-phase override): together with the fixed scan order this makes the
   model found a pure function of the clause set's meaning — the
   lexicographically preferred model w.r.t. [order] — independent of learned
   clauses, VSIDS state, and restart timing. Assignments only grow between
   backtracks, so the scan resumes at [order_head], which [cancel_until]
   rewinds to 0. *)
let pick_ordered t (order : int array) =
  let n = Array.length order in
  let i = ref t.order_head in
  while !i < n && t.assigns.(Lit.var order.(!i)) >= 0 do incr i done;
  t.order_head <- !i;
  if !i < n then order.(!i) else -1

let solve_with_assumptions ?order t assumptions =
  if not t.ok then A_unsat []
  else begin
    cancel_until t 0;
    t.order_head <- 0;
    let assumptions = Array.of_list (assumptions :> int list) in
    let order = match order with None -> [||] | Some o -> (o : Lit.t array :> int array) in
    let core = ref [] in
    try
      if propagate t != dummy_clause then begin
        t.ok <- false;
        raise Unsat_exn
      end;
      let restart_n = ref 0 in
      let rec search_forever () =
        incr restart_n;
        let budget = 100 * luby !restart_n in
        let conflicts_here = ref 0 in
        (try
           while true do
             let confl = propagate t in
             if confl != dummy_clause then begin
               t.n_conflicts <- t.n_conflicts + 1;
               incr conflicts_here;
               if decision_level t = 0 then begin
                 t.ok <- false;
                 raise Unsat_exn
               end;
               let learnt, btlevel = analyze t confl in
               cancel_until t btlevel;
               (if Array.length learnt = 1 then enqueue t learnt.(0) dummy_clause
                else begin
                  let c = { lits = learnt; learned = true; activity = t.cla_inc } in
                  Vec.push t.clauses c;
                  t.n_learned <- t.n_learned + 1;
                  t.n_live_learned <- t.n_live_learned + 1;
                  attach_clause t c;
                  enqueue t learnt.(0) c
                end);
               var_decay t;
               if !conflicts_here >= budget then begin
                 t.n_restarts <- t.n_restarts + 1;
                 cancel_until t 0;
                 raise Restart
               end
             end
             else if decision_level t < Array.length assumptions then begin
               (* Decide next: assumptions first, then the canonical order
                  if given, then VSIDS. *)
               let p = assumptions.(decision_level t) in
               match lit_value t p with
               | 1 -> new_decision_level t
               | 0 ->
                   (* Conflicts with the assumptions: report which. *)
                   core := analyze_final t p;
                   raise Unsat_exn
               | _ ->
                   t.n_decisions <- t.n_decisions + 1;
                   new_decision_level t;
                   enqueue t p dummy_clause
             end
             else begin
               let l = pick_ordered t order in
               if l >= 0 then begin
                 t.n_decisions <- t.n_decisions + 1;
                 new_decision_level t;
                 enqueue t l dummy_clause
               end
               else begin
                 let v = pick_branch_var t in
                 if v < 0 then raise Exit (* all assigned: SAT *);
                 t.n_decisions <- t.n_decisions + 1;
                 new_decision_level t;
                 enqueue t (Lit.make v t.phase.(v)) dummy_clause
               end
             end
           done
         with Restart -> ());
        search_forever ()
      in
      (try search_forever () with Exit -> ());
      A_sat
    with Unsat_exn ->
      cancel_until t 0;
      (* Distinguish global unsat from assumption-relative unsat: if [ok]
         was cleared, the instance is globally unsat (empty core); otherwise
         only the assumptions failed and the solver stays usable. *)
      A_unsat !core
  end

let solve ?(assumptions = []) t =
  match solve_with_assumptions t assumptions with
  | A_sat -> Sat
  | A_unsat _ -> Unsat

let value t v = if t.assigns.(v) >= 0 then t.assigns.(v) = 1 else t.phase.(v)
let num_learned t = t.n_live_learned
let cancel_to_root t = cancel_until t 0

(* Back to the search state of a fresh solver holding the same clauses:
   learned clauses leave the database and their watch lists (order kept),
   activities, phases and the increments return to their initial values, and
   the heap holds every variable in index order. Root-level facts stay —
   they are implied by the clauses — but their reasons are dropped, since
   level-0 reasons are never read. *)
let reset_search t =
  cancel_until t 0;
  if t.n_live_learned > 0 then begin
    let original c = not c.learned in
    Vec.filter_in_place original t.clauses;
    for l = 0 to (2 * t.nvars) - 1 do
      Vec.filter_in_place original t.watches.(l)
    done;
    t.n_live_learned <- 0
  end;
  for i = 0 to Vec.size t.trail - 1 do
    t.reason.(Lit.var (Vec.get t.trail i)) <- dummy_clause
  done;
  Array.fill t.activity 0 t.nvars 0.0;
  Array.fill t.phase 0 t.nvars false;
  t.var_inc <- 1.0;
  t.cla_inc <- 1.0;
  Heap.rebuild t.order t.nvars

let stats t =
  [ ("conflicts", t.n_conflicts);
    ("decisions", t.n_decisions);
    ("propagations", t.n_propagations);
    ("restarts", t.n_restarts);
    ("learned", t.n_learned) ]
