(* Flat rows indexed by site id: [cells] holds a site's objects, first
   objects and sum at [3 * site] and the two words after it, zero for a
   site without a row.  [touched] lists the sites that have a row (their
   objects count is positive), in the order first noted until [sort]
   orders them. *)
type t = {
  mutable cells : int array;
  mutable touched : int array;
  mutable rows : int;             (* the valid prefix of [touched] *)
  mutable sorted : bool;          (* that prefix is ascending *)
}

let create () = { cells = [||]; touched = [||]; rows = 0; sorted = true }

let empty = create ()

let fit ~width cells site =
  if site < 0 || site > Mem.Header.max_site then
    invalid_arg "Site_tally: site out of range";
  if width * site < Array.length cells then cells
  else begin
    let sites =
      min (Mem.Header.max_site + 1)
        (max (site + 1) (max 64 (2 * (Array.length cells / width))))
    in
    let grown = Array.make (width * sites) 0 in
    Array.blit cells 0 grown 0 (Array.length cells);
    grown
  end

let grow t site =
  if t == empty then invalid_arg "Site_tally: the empty table takes no rows";
  t.cells <- fit ~width:3 t.cells site

let touch t site =
  if t.rows = Array.length t.touched then begin
    let touched = Array.make (max 16 (2 * t.rows)) 0 in
    Array.blit t.touched 0 touched 0 t.rows;
    t.touched <- touched
  end;
  if t.rows > 0 && site < t.touched.(t.rows - 1) then t.sorted <- false;
  t.touched.(t.rows) <- site;
  t.rows <- t.rows + 1

(* [objects >= 1], so the site has a row afterwards *)
let add t ~site ~objects ~firsts ~sum =
  if site < 0 || 3 * site >= Array.length t.cells then grow t site;
  let i = 3 * site in
  let cells = t.cells in
  if cells.(i) = 0 then touch t site;
  cells.(i) <- cells.(i) + objects;
  cells.(i + 1) <- cells.(i + 1) + firsts;
  cells.(i + 2) <- cells.(i + 2) + sum

let note t ~site ~first ~words =
  add t ~site ~objects:1 ~firsts:(Bool.to_int first) ~sum:words

let note_death t ~site ~birth = add t ~site ~objects:1 ~firsts:0 ~sum:birth

(* heap sort of the touched prefix, in place: the rows of a collection
   are put in site order without allocating *)
let rec sift a i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c len
    end
  end

let sort t =
  let a = t.touched and n = t.rows in
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift a 0 last
  done;
  t.sorted <- true

let length t = t.rows

let site t i =
  if i < 0 || i >= t.rows then invalid_arg "Site_tally.site";
  if not t.sorted then sort t;
  t.touched.(i)

let column t site k =
  if site >= 0 && 3 * site < Array.length t.cells then t.cells.((3 * site) + k)
  else 0

let objects t site = column t site 0
let firsts t site = column t site 1
let sum t site = column t site 2

let iter t f =
  for i = 0 to t.rows - 1 do
    let s = site t i in
    f ~site:s ~objects:(objects t s) ~firsts:(firsts t s) ~sum:(sum t s)
  done

let rows t =
  let acc = ref [] in
  for i = t.rows - 1 downto 0 do
    let s = site t i in
    acc := (s, objects t s, firsts t s, sum t s) :: !acc
  done;
  !acc

let merge tables =
  let m = create () in
  List.iter
    (fun tab ->
      for i = 0 to tab.rows - 1 do
        let s = tab.touched.(i) in
        add m ~site:s ~objects:(objects tab s) ~firsts:(firsts tab s)
          ~sum:(sum tab s)
      done)
    tables;
  m

let clear t =
  for i = 0 to t.rows - 1 do
    Array.fill t.cells (3 * t.touched.(i)) 3 0
  done;
  t.rows <- 0;
  t.sorted <- true
