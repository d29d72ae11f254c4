(* Unit and property tests for the bitvector substrate. *)

module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Rng = Switchv_bitvec.Rng

let bv = Alcotest.testable Bitvec.pp Bitvec.equal

let check_bv = Alcotest.check bv
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

(* --- unit tests --------------------------------------------------------- *)

let test_of_int_roundtrip () =
  List.iter
    (fun (w, n) ->
      check_int (Printf.sprintf "of_int %d@%d" n w) n
        (Bitvec.to_int_exn (Bitvec.of_int ~width:w n)))
    [ (1, 0); (1, 1); (8, 255); (16, 65535); (32, 0xDEADBEE); (48, 1 lsl 40); (62, 42) ]

let test_of_int_truncates () =
  check_bv "256 truncated to 8 bits is 0" (Bitvec.zero 8) (Bitvec.of_int ~width:8 256);
  check_bv "257 truncated to 8 bits is 1" (Bitvec.of_int ~width:8 1)
    (Bitvec.of_int ~width:8 257)

let test_bin_string () =
  let v = Bitvec.of_bin_string "10110" in
  check_int "width" 5 (Bitvec.width v);
  check_int "value" 0b10110 (Bitvec.to_int_exn v);
  check_string "roundtrip" "10110" (Bitvec.to_bin_string v)

let test_hex_string () =
  let v = Bitvec.of_hex_string ~width:32 "deadbeef" in
  check_int "value" 0xdeadbeef (Bitvec.to_int_exn v);
  check_string "to_hex" "deadbeef" (Bitvec.to_hex_string v);
  let odd = Bitvec.of_hex_string ~width:12 "abc" in
  check_string "odd width hex" "abc" (Bitvec.to_hex_string odd)

let test_arith_basics () =
  let a = Bitvec.of_int ~width:8 200 and b = Bitvec.of_int ~width:8 100 in
  check_int "add wraps" 44 (Bitvec.to_int_exn (Bitvec.add a b));
  check_int "sub" 100 (Bitvec.to_int_exn (Bitvec.sub a b));
  check_int "sub wraps" 156 (Bitvec.to_int_exn (Bitvec.sub b a));
  check_int "mul wraps" ((200 * 100) mod 256) (Bitvec.to_int_exn (Bitvec.mul a b));
  check_int "neg" 56 (Bitvec.to_int_exn (Bitvec.neg a))

let test_wide_arith () =
  (* 128-bit: (2^100 + 5) + (2^100 + 7) = 2^101 + 12 *)
  let p100 = Bitvec.shift_left (Bitvec.of_int ~width:128 1) 100 in
  let a = Bitvec.add p100 (Bitvec.of_int ~width:128 5) in
  let b = Bitvec.add p100 (Bitvec.of_int ~width:128 7) in
  let expected =
    Bitvec.add (Bitvec.shift_left (Bitvec.of_int ~width:128 1) 101)
      (Bitvec.of_int ~width:128 12)
  in
  check_bv "128-bit add" expected (Bitvec.add a b)

let test_concat_extract () =
  let hi = Bitvec.of_int ~width:8 0xAB and lo = Bitvec.of_int ~width:8 0xCD in
  let c = Bitvec.concat hi lo in
  check_int "concat width" 16 (Bitvec.width c);
  check_int "concat value" 0xABCD (Bitvec.to_int_exn c);
  check_bv "extract hi" hi (Bitvec.extract ~hi:15 ~lo:8 c);
  check_bv "extract lo" lo (Bitvec.extract ~hi:7 ~lo:0 c)

let test_shifts () =
  let v = Bitvec.of_int ~width:16 0x00FF in
  check_int "shl" 0x0FF0 (Bitvec.to_int_exn (Bitvec.shift_left v 4));
  check_int "shr" 0x000F (Bitvec.to_int_exn (Bitvec.shift_right v 4));
  check_int "shl overflow drops" 0xF000 (Bitvec.to_int_exn (Bitvec.shift_left v 12))

let test_prefix_mask () =
  check_bv "prefix 8 of 32" (Bitvec.of_int64 ~width:32 0xFF000000L)
    (Bitvec.prefix_mask ~width:32 8);
  check_bv "prefix 0" (Bitvec.zero 32) (Bitvec.prefix_mask ~width:32 0);
  check_bv "prefix full" (Bitvec.ones 32) (Bitvec.prefix_mask ~width:32 32)

let test_compare_unsigned () =
  let a = Bitvec.of_int ~width:8 200 and b = Bitvec.of_int ~width:8 100 in
  check_bool "200 > 100 unsigned" true (Bitvec.ult b a);
  check_bool "not a < b" false (Bitvec.ult a b);
  check_bool "le refl" true (Bitvec.ule a a)

let test_bytes_roundtrip () =
  let v = Bitvec.of_int64 ~width:48 0x0A0B0C0D0E0FL in
  let s = Bitvec.to_bytes_be v in
  check_int "length" 6 (String.length s);
  check_int "first byte" 0x0A (Char.code s.[0]);
  check_bv "roundtrip" v (Bitvec.of_bytes_be s)

let test_popcount () =
  check_int "popcount" 8 (Bitvec.popcount (Bitvec.of_int ~width:16 0xFF00));
  check_int "popcount ones 128" 128 (Bitvec.popcount (Bitvec.ones 128))

(* --- prefix tests ------------------------------------------------------- *)

let test_prefix_parse () =
  let p = Prefix.of_ipv4_string "10.0.0.0/8" in
  check_int "len" 8 (Prefix.len p);
  check_string "rt" "10.0.0.0/8" (Prefix.to_ipv4_string p);
  let q = Prefix.of_ipv4_string "10.*.*.*" in
  check_bool "wildcard form equals /8" true (Prefix.equal p q);
  let r = Prefix.of_ipv4_string "10.0.0.1" in
  check_int "host route" 32 (Prefix.len r)

let test_prefix_match () =
  let p = Prefix.of_ipv4_string "10.0.0.0/8" in
  let ip s =
    List.fold_left
      (fun acc o -> Bitvec.logor (Bitvec.shift_left acc 8) (Bitvec.of_int ~width:32 o))
      (Bitvec.zero 32) s
  in
  check_bool "matches inside" true (Prefix.matches p (ip [ 10; 1; 2; 3 ]));
  check_bool "no match outside" false (Prefix.matches p (ip [ 11; 1; 2; 3 ]));
  check_bool "any matches" true (Prefix.matches (Prefix.any 32) (ip [ 11; 1; 2; 3 ]))

let test_prefix_canonical () =
  (* 10.1.2.3/8 canonicalises to 10.0.0.0/8. *)
  let v = Bitvec.of_int64 ~width:32 0x0A010203L in
  let p = Prefix.make v 8 in
  check_string "canonical" "10.0.0.0/8" (Prefix.to_ipv4_string p);
  check_bool "raw not canonical" false (Prefix.is_canonical v 8)

let test_prefix_subsumes () =
  let a = Prefix.of_ipv4_string "10.0.0.0/8" in
  let b = Prefix.of_ipv4_string "10.0.0.0/16" in
  check_bool "shorter subsumes longer" true (Prefix.subsumes a b);
  check_bool "longer does not subsume" false (Prefix.subsumes b a)

(* --- ternary tests ------------------------------------------------------ *)

let test_ternary () =
  let v = Bitvec.of_int ~width:8 0b1010_1010 in
  let m = Bitvec.of_int ~width:8 0b1111_0000 in
  let t = Ternary.make ~value:v ~mask:m in
  check_bool "matches" true (Ternary.matches t (Bitvec.of_int ~width:8 0b1010_0101));
  check_bool "no match" false (Ternary.matches t (Bitvec.of_int ~width:8 0b0101_0101));
  check_bool "wildcard matches all" true
    (Ternary.matches (Ternary.wildcard 8) (Bitvec.of_int ~width:8 123));
  check_bool "exact" true (Ternary.matches (Ternary.exact v) v);
  check_bool "exact mismatch" false
    (Ternary.matches (Ternary.exact v) (Bitvec.of_int ~width:8 0))

let test_ternary_of_prefix () =
  let p = Prefix.of_ipv4_string "192.168.0.0/16" in
  let t = Ternary.of_prefix p in
  let ip = Bitvec.of_int64 ~width:32 0xC0A80101L in
  check_bool "prefix as ternary matches" true (Ternary.matches t ip)

(* --- rng determinism ---------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 43 in
  let differs = ref false in
  let a = Rng.create 42 in
  for _ = 1 to 20 do
    if Rng.int a 1000000 <> Rng.int c 1000000 then differs := true
  done;
  check_bool "different seeds differ" true !differs

let test_rng_weighted () =
  let rng = Rng.create 7 in
  for _ = 1 to 100 do
    let x = Rng.choose_weighted rng [ ("a", 0); ("b", 5) ] in
    check_string "zero-weight never chosen" "b" x
  done

(* --- property tests ------------------------------------------------------ *)

let gen_width = QCheck.Gen.oneofl [ 1; 3; 8; 16; 17; 32; 33; 48; 64; 128 ]

let gen_bv =
  QCheck.Gen.(
    gen_width >>= fun w ->
    let rng_seed = int_bound 0xFFFFFF in
    rng_seed >>= fun seed ->
    return (Rng.bitvec (Rng.create seed) w))

let arb_bv = QCheck.make ~print:(Format.asprintf "%a" Bitvec.pp) gen_bv

let gen_bv_pair =
  QCheck.Gen.(
    gen_width >>= fun w ->
    int_bound 0xFFFFFF >>= fun s1 ->
    int_bound 0xFFFFFF >>= fun s2 ->
    return (Rng.bitvec (Rng.create s1) w, Rng.bitvec (Rng.create s2) w))

let arb_bv_pair =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "(%a, %a)" Bitvec.pp a Bitvec.pp b)
    gen_bv_pair

let prop_add_comm =
  QCheck.Test.make ~name:"add commutative" ~count:200 arb_bv_pair (fun (a, b) ->
      Bitvec.equal (Bitvec.add a b) (Bitvec.add b a))

let prop_add_sub_inverse =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:200 arb_bv_pair (fun (a, b) ->
      Bitvec.equal (Bitvec.sub (Bitvec.add a b) b) a)

let prop_neg_involution =
  QCheck.Test.make ~name:"neg (neg a) = a" ~count:200 arb_bv (fun a ->
      Bitvec.equal (Bitvec.neg (Bitvec.neg a)) a)

let prop_lognot_involution =
  QCheck.Test.make ~name:"lognot involutive" ~count:200 arb_bv (fun a ->
      Bitvec.equal (Bitvec.lognot (Bitvec.lognot a)) a)

let prop_de_morgan =
  QCheck.Test.make ~name:"De Morgan" ~count:200 arb_bv_pair (fun (a, b) ->
      Bitvec.equal
        (Bitvec.lognot (Bitvec.logand a b))
        (Bitvec.logor (Bitvec.lognot a) (Bitvec.lognot b)))

let prop_concat_extract =
  QCheck.Test.make ~name:"extract of concat recovers parts" ~count:200 arb_bv_pair
    (fun (a, b) ->
      let c = Bitvec.concat a b in
      let wa = Bitvec.width a and wb = Bitvec.width b in
      Bitvec.equal (Bitvec.extract ~hi:(wa + wb - 1) ~lo:wb c) a
      && Bitvec.equal (Bitvec.extract ~hi:(wb - 1) ~lo:0 c) b)

let prop_bin_roundtrip =
  QCheck.Test.make ~name:"bin string roundtrip" ~count:200 arb_bv (fun a ->
      Bitvec.equal (Bitvec.of_bin_string (Bitvec.to_bin_string a)) a)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex string roundtrip" ~count:200 arb_bv (fun a ->
      Bitvec.equal (Bitvec.of_hex_string ~width:(Bitvec.width a) (Bitvec.to_hex_string a)) a)

let prop_compare_total =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:200 arb_bv_pair (fun (a, b) ->
      Bitvec.compare a b = -Bitvec.compare b a)

let prop_shift_add =
  QCheck.Test.make ~name:"shl 1 = add self" ~count:200 arb_bv (fun a ->
      Bitvec.equal (Bitvec.shift_left a 1) (Bitvec.add a a))

let prop_prefix_matches_canonical =
  QCheck.Test.make ~name:"prefix matches own value" ~count:200
    (QCheck.make
       ~print:(fun (a, l) -> Format.asprintf "(%a, %d)" Bitvec.pp a l)
       QCheck.Gen.(
         gen_bv >>= fun v ->
         int_bound (Bitvec.width v) >>= fun l -> return (v, l)))
    (fun (v, l) ->
      let p = Prefix.make v l in
      Prefix.matches p (Prefix.value p) && Prefix.matches p v)

(* --- word-level operations against bit-loop references --------------------

   The library's structural operations work on whole limbs and bytes. The
   references below compute the same results one bit at a time through
   [Bitvec.bit] and [Bitvec.of_bin_string], so they share no word-level
   code with the library. *)

let widths = [ 1; 7; 15; 16; 17; 33; 62; 63; 64; 128 ]

let bits v = Array.init (Bitvec.width v) (Bitvec.bit v)

let of_bits b =
  let n = Array.length b in
  Bitvec.of_bin_string (String.init n (fun i -> if b.(n - 1 - i) then '1' else '0'))

(* Bit [p] of a byte string, MSB first. *)
let string_bit s p = Char.code s.[p / 8] lsr (7 - (p mod 8)) land 1 = 1

let ref_concat hi lo = of_bits (Array.append (bits lo) (bits hi))
let ref_extract ~hi ~lo v = of_bits (Array.sub (bits v) lo (hi - lo + 1))

let ref_shift_left v k =
  let b = bits v in
  of_bits (Array.init (Array.length b) (fun i -> i >= k && b.(i - k)))

let ref_shift_right v k =
  let b = bits v in
  let w = Array.length b in
  of_bits (Array.init w (fun i -> i + k < w && b.(i + k)))

let ref_read s ~off ~width =
  of_bits (Array.init width (fun i -> string_bit s (off + width - 1 - i)))
let ref_of_bytes s = ref_read s ~off:0 ~width:(8 * String.length s)

let ref_to_bytes v =
  let w = Bitvec.width v in
  String.init (w / 8) (fun j ->
      let byte = ref 0 in
      for k = 0 to 7 do
        byte := (!byte lsl 1) lor if Bitvec.bit v (w - 1 - ((8 * j) + k)) then 1 else 0
      done;
      Char.chr !byte)

let ref_write v buf ~off =
  let w = Bitvec.width v in
  for p = off to off + w - 1 do
    let i = p / 8 and m = 1 lsl (7 - (p mod 8)) in
    let old = Char.code (Bytes.get buf i) in
    let b = if Bitvec.bit v (off + w - 1 - p) then old lor m else old land lnot m in
    Bytes.set buf i (Char.chr b)
  done

let ref_hex v =
  let w = Bitvec.width v in
  let n = (w + 3) / 4 in
  String.init n (fun i ->
      let d = ref 0 in
      for b = 3 downto 0 do
        let p = ((n - 1 - i) * 4) + b in
        d := (!d lsl 1) lor if p < w && Bitvec.bit v p then 1 else 0
      done;
      "0123456789abcdef".[!d])

let gen_wbv =
  QCheck.Gen.(
    oneofl widths >>= fun w ->
    int_bound 0xFFFFFF >>= fun seed -> return (Rng.bitvec (Rng.create seed) w))

(* Byte strings: short ones, and full 1500-byte frames. *)
let gen_bytes =
  QCheck.Gen.(string_size ~gen:char (oneof [ int_range 1 40; return 1500 ]))

let pp_bv = Format.asprintf "%a" Bitvec.pp
let pp_bytes s =
  Printf.sprintf "%d bytes %S" (String.length s)
    (if String.length s > 24 then String.sub s 0 24 else s)

let prop_concat_ref =
  QCheck.Test.make ~name:"concat = bit-loop concat" ~count:300
    (QCheck.make ~print:(fun (a, b) -> pp_bv a ^ " ++ " ^ pp_bv b)
       QCheck.Gen.(pair gen_wbv gen_wbv))
    (fun (hi, lo) -> Bitvec.equal (Bitvec.concat hi lo) (ref_concat hi lo))

let prop_extract_ref =
  QCheck.Test.make ~name:"extract = bit-loop extract" ~count:300
    (QCheck.make
       ~print:(fun (v, (hi, lo)) -> Printf.sprintf "%s[%d:%d]" (pp_bv v) hi lo)
       QCheck.Gen.(
         gen_wbv >>= fun v ->
         let w = Bitvec.width v in
         int_bound (w - 1) >>= fun lo ->
         int_range lo (w - 1) >>= fun hi -> return (v, (hi, lo))))
    (fun (v, (hi, lo)) -> Bitvec.equal (Bitvec.extract ~hi ~lo v) (ref_extract ~hi ~lo v))

let prop_shifts_ref =
  QCheck.Test.make ~name:"shifts = bit-loop shifts" ~count:300
    (QCheck.make
       ~print:(fun (v, k) -> Printf.sprintf "%s by %d" (pp_bv v) k)
       QCheck.Gen.(
         gen_wbv >>= fun v -> int_bound (Bitvec.width v + 20) >>= fun k -> return (v, k)))
    (fun (v, k) ->
      Bitvec.equal (Bitvec.shift_left v k) (ref_shift_left v k)
      && Bitvec.equal (Bitvec.shift_right v k) (ref_shift_right v k))

let prop_init_ref =
  QCheck.Test.make ~name:"init = bit-loop of_bits" ~count:300
    (QCheck.make ~print:pp_bv gen_wbv)
    (fun v ->
      let b = bits v in
      Bitvec.equal (Bitvec.init (Array.length b) (Array.get b)) (of_bits b))

let prop_hex_ref =
  QCheck.Test.make ~name:"to_hex_string = bit-loop hex" ~count:300
    (QCheck.make ~print:pp_bv gen_wbv)
    (fun v -> String.equal (Bitvec.to_hex_string v) (ref_hex v))

let prop_bytes_ref =
  QCheck.Test.make ~name:"of_bytes_be/to_bytes_be = bit loops" ~count:100
    (QCheck.make ~print:pp_bytes gen_bytes)
    (fun s ->
      let v = Bitvec.of_bytes_be s in
      Bitvec.equal v (ref_of_bytes s)
      && String.equal (Bitvec.to_bytes_be v) (ref_to_bytes v)
      && String.equal (Bitvec.to_bytes_be v) s)

let gen_read =
  QCheck.Gen.(
    gen_bytes >>= fun s ->
    oneofl (List.filter (fun w -> w <= 8 * String.length s) widths) >>= fun w ->
    int_bound ((8 * String.length s) - w) >>= fun off -> return (s, off, w))

let print_read (s, off, w) = Printf.sprintf "%s off=%d width=%d" (pp_bytes s) off w

let prop_read_ref =
  QCheck.Test.make ~name:"read_be = bit-loop read at any offset" ~count:500
    (QCheck.make ~print:print_read gen_read)
    (fun (s, off, width) ->
      let v = Bitvec.read_be s ~off ~width in
      Bitvec.equal v (ref_read s ~off ~width)
      && Bitvec.equal v
           (let all = Bitvec.of_bytes_be s and n = 8 * String.length s in
            Bitvec.extract ~hi:(n - 1 - off) ~lo:(n - off - width) all))

let prop_write_ref =
  QCheck.Test.make ~name:"write_be = bit-loop write, inverse of read_be" ~count:500
    (QCheck.make
       ~print:(fun ((s, off, _), v) ->
         print_read (s, off, Bitvec.width v) ^ " value " ^ pp_bv v)
       QCheck.Gen.(
         gen_read >>= fun (s, off, w) ->
         int_bound 0xFFFFFF >>= fun seed ->
         return ((s, off, w), Rng.bitvec (Rng.create seed) w)))
    (fun ((s, off, _), v) ->
      let got = Bytes.of_string s and want = Bytes.of_string s in
      Bitvec.write_be v got ~off;
      ref_write v want ~off;
      Bytes.equal got want
      && Bitvec.equal (Bitvec.read_be (Bytes.to_string got) ~off ~width:(Bitvec.width v)) v)

let test_read_write_bounds () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "read past the end" true
    (raises (fun () -> Bitvec.read_be "ab" ~off:9 ~width:8));
  check_bool "read at a negative offset" true
    (raises (fun () -> Bitvec.read_be "ab" ~off:(-1) ~width:8));
  check_bool "read of the empty string" true
    (raises (fun () -> Bitvec.read_be "" ~off:0 ~width:1));
  check_bool "write past the end" true
    (raises (fun () -> Bitvec.write_be (Bitvec.zero 9) (Bytes.make 1 'x') ~off:0));
  check_bool "last bit readable" true
    (Bitvec.equal (Bitvec.read_be "\x01" ~off:7 ~width:1) (Bitvec.of_int ~width:1 1))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_add_comm; prop_add_sub_inverse; prop_neg_involution;
      prop_lognot_involution; prop_de_morgan; prop_concat_extract;
      prop_bin_roundtrip; prop_hex_roundtrip; prop_compare_total;
      prop_shift_add; prop_prefix_matches_canonical; prop_concat_ref; prop_extract_ref;
      prop_init_ref; prop_shifts_ref; prop_hex_ref; prop_bytes_ref; prop_read_ref; prop_write_ref ]

let () =
  Alcotest.run "bitvec"
    [ ("construction",
       [ Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
         Alcotest.test_case "of_int truncates" `Quick test_of_int_truncates;
         Alcotest.test_case "bin strings" `Quick test_bin_string;
         Alcotest.test_case "hex strings" `Quick test_hex_string ]);
      ("arithmetic",
       [ Alcotest.test_case "basics" `Quick test_arith_basics;
         Alcotest.test_case "wide" `Quick test_wide_arith;
         Alcotest.test_case "shifts" `Quick test_shifts;
         Alcotest.test_case "compare" `Quick test_compare_unsigned;
         Alcotest.test_case "popcount" `Quick test_popcount ]);
      ("structure",
       [ Alcotest.test_case "concat/extract" `Quick test_concat_extract;
         Alcotest.test_case "prefix masks" `Quick test_prefix_mask;
         Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
         Alcotest.test_case "read/write bounds" `Quick test_read_write_bounds ]);
      ("prefix",
       [ Alcotest.test_case "parse" `Quick test_prefix_parse;
         Alcotest.test_case "match" `Quick test_prefix_match;
         Alcotest.test_case "canonical" `Quick test_prefix_canonical;
         Alcotest.test_case "subsumes" `Quick test_prefix_subsumes ]);
      ("ternary",
       [ Alcotest.test_case "match" `Quick test_ternary;
         Alcotest.test_case "of_prefix" `Quick test_ternary_of_prefix ]);
      ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "weighted" `Quick test_rng_weighted ]);
      ("properties", props) ]
