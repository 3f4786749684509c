type t = {
  name : string;
  description : string;
  paper_lines : int;
  default_scale : int;
  scale_range : int * int;
  run : Gsc.Runtime.t -> scale:int -> unit;
}

let run_default t rt = t.run rt ~scale:t.default_scale

let accepts t scale =
  let lo, hi = t.scale_range in
  lo <= scale && scale <= hi
