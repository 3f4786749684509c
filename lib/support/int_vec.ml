(* [Vec] at one element type: a store into an [int array] is a plain
   word store, where [Vec]'s polymorphic array goes through
   [caml_modify] (or its float-array check) on every push. *)
type t = {
  mutable data : int array;
  mutable len : int;
}

let create ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Int_vec.create";
  { data = Array.make capacity 0; len = 0 }

let length v = v.len
let is_empty v = v.len = 0

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Int_vec: index out of bounds";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Int_vec: index out of bounds";
  Array.unsafe_set v.data i x

let grow v =
  let cap = Array.length v.data in
  let data' = Array.make (if cap = 0 then 8 else cap * 2) 0 in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Int_vec.pop: empty";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let truncate v n =
  if n < 0 then invalid_arg "Int_vec.truncate";
  if n < v.len then v.len <- n

let clear v = v.len <- 0
