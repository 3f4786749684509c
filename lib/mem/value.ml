type t =
  | Int of int
  | Ptr of Addr.t

let null = Ptr Addr.null
let zero = Int 0

let is_ptr = function
  | Ptr a -> not (Addr.is_null a)
  | Int _ -> false

let to_addr = function
  | Ptr a when not (Addr.is_null a) -> a
  | Ptr _ -> invalid_arg "Value.to_addr: null pointer"
  | Int _ -> invalid_arg "Value.to_addr: integer"

let pointer_as_int () = invalid_arg "Value.to_int: pointer"

let to_int = function
  | Int n -> n
  | Ptr _ -> pointer_as_int ()

let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Ptr x, Ptr y -> Addr.equal x y
  | Int _, Ptr _ | Ptr _, Int _ -> false

let pp fmt = function
  | Int n -> Format.fprintf fmt "i%d" n
  | Ptr a -> Format.fprintf fmt "p%a" Addr.pp a

let encode = function
  | Int n -> (n lsl 1) lor 1
  | Ptr a -> Addr.encode_raw a lsl 1

let decode w =
  if w land 1 = 1 then Int (w asr 1) else Ptr (Addr.decode_raw (w asr 1))

(* Raw-word views of the packed encoding, for the collector fast paths:
   each predicate/projection is a couple of integer ops with no
   allocation. *)

let encoded_zero = encode zero
let encoded_null = encode null

let encoded_is_int w = w land 1 = 1

let encoded_is_ptr w = w land 1 = 0 && w <> encoded_null

let encoded_to_int w = w asr 1

let decode_int w = if w land 1 = 1 then w asr 1 else pointer_as_int ()

let encoded_to_addr w = Addr.decode_raw (w asr 1)

let encode_int n = (n lsl 1) lor 1

let encode_addr a = Addr.encode_raw a lsl 1
