(* The collectors' one typed failure: the memory budget cannot hold the
   live data (or a single object).  Raised instead of [Failure] so that
   an undersized heap is told apart from an internal error; the CLI maps
   it to exit 1. *)
exception Exhausted of string
