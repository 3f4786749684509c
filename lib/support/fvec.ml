type t = {
  mutable data : Float.Array.t;
  mutable len : int;
}

let create () = { data = Float.Array.create 0; len = 0 }

let push v x =
  let cap = Float.Array.length v.data in
  if v.len = cap then begin
    let data' = Float.Array.create (if cap = 0 then 64 else cap * 2) in
    Float.Array.blit v.data 0 data' 0 v.len;
    v.data <- data'
  end;
  Float.Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let to_array v = Array.init v.len (Float.Array.get v.data)
