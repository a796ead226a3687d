(* Seeded input generation. The benchmark owns its generator (rather than
   reusing lib/workload) so that a change to the program can never change
   the inputs it is measured on. Documents are kept as records next to
   their XML text: the output checks compute expected answers from the
   records, independently of the engine. *)

(* SplitMix64: stable across OCaml versions, unlike Stdlib.Random. *)
type rng = { mutable s : int64 }

let rng seed stream =
  { s = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int stream)) }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* uniform in [0, bound) *)
let int r bound =
  Int64.(to_int (rem (shift_right_logical (next r) 1) (of_int bound)))

(* Prices are whole cents in [0, 100000): the XML text and the expected
   answers then agree exactly, with no float rounding between them. *)
type item = { cents : int; qty : int; pid : int }
type order = { oid : int; items : item array; xml : string }

let n_products = 1000
let price_text c = Printf.sprintf "%d.%02d" (c / 100) (c mod 100)

let order r oid =
  let items =
    Array.init (1 + int r 5) (fun _ ->
        { cents = int r 100_000; qty = 1 + int r 20; pid = 1 + int r n_products })
  in
  let b = Buffer.create 400 in
  Printf.bprintf b "<order id=\"o%d\"><date>%04d-%02d-%02d</date><custid>%d</custid>"
    oid (2000 + int r 7) (1 + int r 12) (1 + int r 28) (1000 + int r 500);
  Array.iter
    (fun it ->
      let p = price_text it.cents in
      Printf.bprintf b
        "<lineitem price=\"%s\"><price>%s</price><quantity>%d</quantity>\
         <product><id>p%d</id></product></lineitem>"
        p p it.qty it.pid)
    items;
  Buffer.add_string b "</order>";
  { oid; items; xml = Buffer.contents b }

(* [n] orders numbered [first ..]; each stream is independent, so the
   collection, the parameter literals and the ingested orders of one
   seed never shift each other. *)
let orders ~seed ~stream ~first n =
  let r = rng seed stream in
  List.init n (fun i -> order r (first + i))

(* the order id the next new order gets *)
let next_id = ref 1

let xml_bytes os = List.fold_left (fun a o -> a + String.length o.xml) 0 os
