(* The xoshiro256++ state: four 64-bit words s0..s3, little-endian in one
   32-byte buffer. Words read and written through [Bytes] stay unboxed in
   registers, where a mutable int64 record field boxes on every store. *)
type t = Bytes.t

let[@inline] word t i = Bytes.get_int64_le t (i * 8)
let[@inline] set_word t i v = Bytes.set_int64_le t (i * 8) v

(* splitmix64, used only to stretch a seed into the 256-bit xoshiro state. *)
let of_seed seed =
  let open Int64 in
  let t = Bytes.create 32 in
  let state = ref seed in
  for i = 0 to 3 do
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    set_word t i (logxor z (shift_right_logical z 31))
  done;
  t

let create seed = of_seed (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step. Inlined into the draws below, so its result is
   never boxed unless a caller asks for the raw int64. *)
let[@inline] next t =
  let open Int64 in
  let s0 = word t 0 and s1 = word t 1 and s2 = word t 2 and s3 = word t 3 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set_word t 0 s0;
  set_word t 1 s1;
  set_word t 2 (logxor s2 tmp);
  set_word t 3 (rotl s3 45);
  result

let bits64 t = next t

(* Derive a child by seeding splitmix64 from the parent's next output;
   xoshiro outputs are equidistributed enough for stream separation. *)
let split t = of_seed (next t)

let float t =
  (* 53 high bits -> [0,1). *)
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let limit = Int64.sub Int64.max_int (Int64.sub n64 1L) in
  let value = ref (-1) in
  while !value < 0 do
    let bits = Int64.shift_right_logical (next t) 1 in
    let v = Int64.rem bits n64 in
    if Int64.sub bits v <= limit then value := Int64.to_int v
  done;
  !value

let bool t = Int64.compare (Int64.logand (next t) 1L) 0L <> 0
let range t lo hi = lo +. ((hi -. lo) *. float t)

let shuffle t a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
