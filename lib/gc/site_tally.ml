type row = {
  mutable objects : int;
  mutable firsts : int;
  mutable words : int;
}

type t = (int, row) Hashtbl.t

let create () : t = Hashtbl.create 32

let note t ~site ~first ~words =
  match Hashtbl.find t site with
  | r ->
    r.objects <- r.objects + 1;
    if first then r.firsts <- r.firsts + 1;
    r.words <- r.words + words
  | exception Not_found ->
    Hashtbl.add t site { objects = 1; firsts = Bool.to_int first; words }

let merge tables =
  let m = create () in
  List.iter
    (Hashtbl.iter (fun site r ->
         match Hashtbl.find m site with
         | s ->
           s.objects <- s.objects + r.objects;
           s.firsts <- s.firsts + r.firsts;
           s.words <- s.words + r.words
         | exception Not_found ->
           Hashtbl.add m site
             { objects = r.objects; firsts = r.firsts; words = r.words }))
    tables;
  m

let rows t =
  List.sort compare
    (Hashtbl.fold
       (fun site r acc -> (site, r.objects, r.firsts, r.words) :: acc)
       t [])

let clear t = Hashtbl.reset t
