type kind =
  | Bump
  | Free_list
  | Size_class

let kind_name = function
  | Bump -> "bump"
  | Free_list -> "free_list"
  | Size_class -> "size_class"

let kind_of_string = function
  | "bump" -> Some Bump
  | "free_list" -> Some Free_list
  | "size_class" -> Some Size_class
  | _ -> None

let all_kinds = [ Bump; Free_list; Size_class ]

type frag = {
  mutable free_words : int;
  mutable free_blocks : int;
  mutable largest_hole : int;
}

module type S = sig
  type t

  val kind : kind
  val alloc : t -> int -> Mem.Addr.t
  val free : t -> Mem.Addr.t -> words:int -> unit
  val contains : t -> Mem.Addr.t -> bool
  val iter_objects : t -> (Mem.Addr.t -> unit) -> unit
  val live_words : t -> int
  val frag_into : t -> frag -> unit
  val destroy : t -> unit
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let kind_of (Packed ((module B), _)) = B.kind
let name p = kind_name (kind_of p)
let alloc (Packed ((module B), b)) words = B.alloc b words
let free (Packed ((module B), b)) addr ~words = B.free b addr ~words
let contains (Packed ((module B), b)) addr = B.contains b addr
let iter_objects (Packed ((module B), b)) f = B.iter_objects b f
let live_words (Packed ((module B), b)) = B.live_words b
let frag_into (Packed ((module B), b)) f = B.frag_into b f

let frag p =
  let f = { free_words = 0; free_blocks = 0; largest_hole = 0 } in
  frag_into p f;
  f

let destroy (Packed ((module B), b)) = B.destroy b
