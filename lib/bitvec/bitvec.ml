(* Bitvectors are stored as little-endian arrays of 16-bit limbs. A 16-bit
   limb keeps every operation (including long multiplication) comfortably
   within OCaml's native int range. The top limb is always masked to the
   declared width, so structural equality of the limb arrays coincides with
   value equality. *)

let limb_bits = 16
let limb_mask = 0xFFFF

type t = { width : int; limbs : int array }

let width t = t.width

let limbs_for w = (w + limb_bits - 1) / limb_bits

(* Mask the top limb so unused high bits are zero. *)
let normalize width limbs =
  let n = limbs_for width in
  let top_bits = width - ((n - 1) * limb_bits) in
  let top_mask = if top_bits >= limb_bits then limb_mask else (1 lsl top_bits) - 1 in
  limbs.(n - 1) <- limbs.(n - 1) land top_mask;
  { width; limbs }

let check_width name w = if w < 1 then invalid_arg (name ^ ": width must be >= 1")

let zero w =
  check_width "Bitvec.zero" w;
  { width = w; limbs = Array.make (limbs_for w) 0 }

let ones w =
  check_width "Bitvec.ones" w;
  normalize w (Array.make (limbs_for w) limb_mask)

let of_int ~width:w n =
  check_width "Bitvec.of_int" w;
  if n < 0 then invalid_arg "Bitvec.of_int: negative";
  let limbs = Array.make (limbs_for w) 0 in
  let rec fill i n = if n <> 0 && i < Array.length limbs then begin
      limbs.(i) <- n land limb_mask;
      fill (i + 1) (n lsr limb_bits)
    end
  in
  fill 0 n;
  normalize w limbs

let of_int64 ~width:w n =
  check_width "Bitvec.of_int64" w;
  let limbs = Array.make (limbs_for w) 0 in
  let rec fill i n =
    if not (Int64.equal n 0L) && i < Array.length limbs then begin
      limbs.(i) <- Int64.to_int (Int64.logand n 0xFFFFL);
      fill (i + 1) (Int64.shift_right_logical n limb_bits)
    end
  in
  fill 0 n;
  normalize w limbs

let of_bool b = of_int ~width:1 (if b then 1 else 0)

let bit t i =
  if i < 0 || i >= t.width then invalid_arg "Bitvec.bit: index out of range";
  t.limbs.(i / limb_bits) lsr (i mod limb_bits) land 1 = 1

let set_bit limbs i b =
  let j = i / limb_bits and k = i mod limb_bits in
  if b then limbs.(j) <- limbs.(j) lor (1 lsl k)
  else limbs.(j) <- limbs.(j) land lnot (1 lsl k)

let init w f =
  check_width "Bitvec.init" w;
  let limbs = Array.make (limbs_for w) 0 in
  for i = 0 to w - 1 do
    if f i then set_bit limbs i true
  done;
  { width = w; limbs }

let of_bin_string s =
  let w = String.length s in
  check_width "Bitvec.of_bin_string" w;
  let limbs = Array.make (limbs_for w) 0 in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set_bit limbs (w - 1 - i) true
      | _ -> invalid_arg "Bitvec.of_bin_string: not a binary digit")
    s;
  normalize w limbs

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bitvec.of_hex_string: not a hex digit"

let of_hex_string ~width:w s =
  check_width "Bitvec.of_hex_string" w;
  let limbs = Array.make (limbs_for w) 0 in
  let n = String.length s in
  for i = 0 to n - 1 do
    let d = hex_digit s.[n - 1 - i] in
    for b = 0 to 3 do
      let pos = (i * 4) + b in
      if pos < w && d lsr b land 1 = 1 then set_bit limbs pos true
    done
  done;
  normalize w limbs

let to_int t =
  (* An OCaml int holds 62 value bits safely. *)
  let max_limbs = 62 / limb_bits in
  let n = Array.length t.limbs in
  let rec all_zero i = i >= n || (t.limbs.(i) = 0 && all_zero (i + 1)) in
  if not (all_zero max_limbs) then None
  else begin
    let v = ref 0 in
    for i = min n max_limbs - 1 downto 0 do
      v := (!v lsl limb_bits) lor t.limbs.(i)
    done;
    Some !v
  end

let to_int_exn t =
  match to_int t with
  | Some n -> n
  | None -> invalid_arg "Bitvec.to_int_exn: does not fit in int"

let to_int64 t =
  let n = Array.length t.limbs in
  let rec all_zero i = i >= n || (t.limbs.(i) = 0 && all_zero (i + 1)) in
  if not (all_zero 4) then None
  else begin
    let v = ref 0L in
    for i = min n 4 - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v limb_bits) (Int64.of_int t.limbs.(i))
    done;
    Some !v
  end

let is_zero t = Array.for_all (fun l -> l = 0) t.limbs

let is_ones t =
  let rec go i = i >= t.width || (bit t i && go (i + 1)) in
  go 0

let to_bin_string t = String.init t.width (fun i -> if bit t (t.width - 1 - i) then '1' else '0')

(* A hex digit never straddles two 16-bit limbs, and bits above the width
   are already zero. *)
let to_hex_string t =
  let ndigits = (t.width + 3) / 4 in
  String.init ndigits (fun i ->
      let pos = (ndigits - 1 - i) * 4 in
      "0123456789abcdef".[(t.limbs.(pos / limb_bits) lsr (pos mod limb_bits)) land 0xF])

let popcount t =
  Array.fold_left
    (fun acc l ->
      let rec pc l acc = if l = 0 then acc else pc (l lsr 1) (acc + (l land 1)) in
      pc l acc)
    0 t.limbs

let equal a b = a.width = b.width && a.limbs = b.limbs

let compare a b =
  if a.width <> b.width then invalid_arg "Bitvec.compare: width mismatch";
  let rec go i = if i < 0 then 0 else
      let c = Int.compare a.limbs.(i) b.limbs.(i) in
      if c <> 0 then c else go (i - 1)
  in
  go (Array.length a.limbs - 1)

let ult a b = compare a b < 0
let ule a b = compare a b <= 0

let hash t = Hashtbl.hash (t.width, t.limbs)

let map2 name f a b =
  if a.width <> b.width then invalid_arg ("Bitvec." ^ name ^ ": width mismatch");
  normalize a.width (Array.init (Array.length a.limbs) (fun i -> f a.limbs.(i) b.limbs.(i)))

let logand a b = map2 "logand" ( land ) a b
let logor a b = map2 "logor" ( lor ) a b
let logxor a b = map2 "logxor" ( lxor ) a b
let lognot a = normalize a.width (Array.map (fun l -> lnot l land limb_mask) a.limbs)

(* [read16 limbs pos] is the 16-bit window of bits [pos .. pos+15] of a
   limb array; bits below 0 or above the last limb read as zero. Every
   limb-level structural operation below is a loop of such windows. *)
let read16 limbs pos =
  if pos <= -limb_bits then 0
  else if pos < 0 then (limbs.(0) lsl -pos) land limb_mask
  else begin
    let j = pos / limb_bits and k = pos mod limb_bits in
    let n = Array.length limbs in
    let lo = if j < n then limbs.(j) lsr k else 0 in
    if k = 0 then lo
    else
      let hi = if j + 1 < n then limbs.(j + 1) lsl (limb_bits - k) else 0 in
      (lo lor hi) land limb_mask
  end

let shift_left t k =
  if k < 0 then invalid_arg "Bitvec.shift_left: negative shift";
  normalize t.width
    (Array.init (Array.length t.limbs) (fun i -> read16 t.limbs ((i * limb_bits) - k)))

let shift_right t k =
  if k < 0 then invalid_arg "Bitvec.shift_right: negative shift";
  normalize t.width
    (Array.init (Array.length t.limbs) (fun i -> read16 t.limbs ((i * limb_bits) + k)))

let add a b =
  if a.width <> b.width then invalid_arg "Bitvec.add: width mismatch";
  let n = Array.length a.limbs in
  let limbs = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize a.width limbs

let lognot' = lognot

let neg a = add (lognot' a) (of_int ~width:a.width 1)
let sub a b = add a (neg b)
let succ a = add a (of_int ~width:a.width 1)

let mul a b =
  if a.width <> b.width then invalid_arg "Bitvec.mul: width mismatch";
  let n = Array.length a.limbs in
  let acc = Array.make n 0 in
  for i = 0 to n - 1 do
    if a.limbs.(i) <> 0 then begin
      let carry = ref 0 in
      for j = 0 to n - 1 - i do
        let s = acc.(i + j) + (a.limbs.(i) * b.limbs.(j)) + !carry in
        acc.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done
    end
  done;
  normalize a.width acc

let concat hi lo =
  let w = hi.width + lo.width in
  let nlo = Array.length lo.limbs in
  normalize w
    (Array.init (limbs_for w) (fun i ->
         (if i < nlo then lo.limbs.(i) else 0)
         lor read16 hi.limbs ((i * limb_bits) - lo.width)))

let extract ~hi ~lo t =
  if lo < 0 || hi >= t.width || hi < lo then invalid_arg "Bitvec.extract: bad range";
  let w = hi - lo + 1 in
  normalize w (Array.init (limbs_for w) (fun i -> read16 t.limbs (lo + (i * limb_bits))))

let zero_extend w t =
  if w < t.width then invalid_arg "Bitvec.zero_extend: narrower target";
  if w = t.width then t
  else begin
    let limbs = Array.make (limbs_for w) 0 in
    Array.blit t.limbs 0 limbs 0 (Array.length t.limbs);
    normalize w limbs
  end

let truncate w t =
  if w > t.width then invalid_arg "Bitvec.truncate: wider target";
  if w = t.width then t else extract ~hi:(w - 1) ~lo:0 t

let resize w t = if w >= t.width then zero_extend w t else truncate w t

let prefix_mask ~width:w len =
  check_width "Bitvec.prefix_mask" w;
  if len < 0 || len > w then invalid_arg "Bitvec.prefix_mask: bad prefix length";
  let limbs = Array.make (limbs_for w) 0 in
  for i = w - len to w - 1 do
    set_bit limbs i true
  done;
  normalize w limbs

let fold_bits f t init =
  let acc = ref init in
  for i = 0 to t.width - 1 do
    acc := f i (bit t i) !acc
  done;
  !acc

let random rand_int w =
  check_width "Bitvec.random" w;
  let limbs = Array.init (limbs_for w) (fun _ -> rand_int (limb_mask + 1)) in
  normalize w limbs

let pp fmt t = Format.fprintf fmt "0x%s#%d" (to_hex_string t) t.width
let pp_bin fmt t = Format.fprintf fmt "0b%s#%d" (to_bin_string t) t.width

(* Byte strings number bits MSB first: bit position [p] of [s] is bit
   [7 - p mod 8] of byte [p / 8]. *)

let byte_at s i = if i < 0 then 0 else Char.code (String.unsafe_get s i)

let read_be s ~off ~width:w =
  check_width "Bitvec.read_be" w;
  if off < 0 || off + w > 8 * String.length s then invalid_arg "Bitvec.read_be: out of range";
  (* Limb [i] holds the 16 bits ending at string bit position [e]; the three
     bytes ending at [e / 8] cover them. Bits before [off] that the top
     window drags in are masked off by [normalize]. *)
  let last = off + w - 1 in
  normalize w
    (Array.init (limbs_for w) (fun i ->
         let e = last - (i * limb_bits) in
         let b = e / 8 in
         let v = (byte_at s (b - 2) lsl 16) lor (byte_at s (b - 1) lsl 8) lor byte_at s b in
         (v lsr (7 - (e land 7))) land limb_mask))

let of_bytes_be s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bitvec.of_bytes_be: empty";
  read_be s ~off:0 ~width:(8 * n)

let write_be t buf ~off =
  let w = t.width in
  if off < 0 || off + w > 8 * Bytes.length buf then
    invalid_arg "Bitvec.write_be: out of range";
  let last = off + w - 1 in
  for b = off / 8 to last / 8 do
    (* Bit 0 of byte [b] (position [8b+7]) is bit [last - (8b+7)] of [t];
       [m] keeps the byte's positions inside [off .. last]. *)
    let v = read16 t.limbs (last - ((8 * b) + 7)) land 0xFF in
    let m = (0xFF lsr max 0 (off - (8 * b))) land (0xFF lsl max 0 ((8 * b) + 7 - last)) in
    let old = Char.code (Bytes.unsafe_get buf b) in
    Bytes.unsafe_set buf b (Char.unsafe_chr ((old land lnot m) lor (v land m)))
  done

let to_bytes_be t =
  if t.width mod 8 <> 0 then invalid_arg "Bitvec.to_bytes_be: width not a byte multiple";
  let buf = Bytes.create (t.width / 8) in
  write_be t buf ~off:0;
  Bytes.unsafe_to_string buf
