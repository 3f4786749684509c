(* Gröbner (Table 1): Gröbner-basis computation by Buchberger's
   algorithm, over GF(101) in two variables with graded-lex order.
   Polynomials are simulated linked lists of monomial cells; S-polynomial
   and normal-form computation churn through short-lived cells, while
   polynomials admitted to the basis are copied into dedicated
   (long-lived) sites.  A native mirror runs the identical algorithm so
   the simulated result is checked exactly.

   Monomials pack exponents as ex * 32 + ey; the order key is
   (ex + ey) * 1024 + packed, descending. *)

module R = Gsc.Runtime

let md = 101

let ex_of e = e / 32
let ey_of e = e mod 32
let pack ex ey =
  if ex > 31 || ey > 31 then failwith "grobner: exponent overflow";
  (ex * 32) + ey

let key e = ((ex_of e + ey_of e) * 1024) + e

let inv c =
  (* Fermat: c^(md-2) mod md *)
  let rec power b e acc =
    if e = 0 then acc
    else power (b * b mod md) (e / 2) (if e land 1 = 1 then acc * b mod md else acc)
  in
  power c (md - 2) 1

let divides e1 e2 = ex_of e1 <= ex_of e2 && ey_of e1 <= ey_of e2
let expt_sub e2 e1 = pack (ex_of e2 - ex_of e1) (ey_of e2 - ey_of e1)
let expt_lcm e1 e2 = pack (max (ex_of e1) (ex_of e2)) (max (ey_of e1) (ey_of e2))

(* --- native mirror: polys as monomial lists, sorted by key desc.  A
   monomial packs its coefficient and exponent into one int
   ([c * 1024 + e]), so a term costs the mirror one cons cell. --- *)

module Native = struct
  type poly = int list

  let mono c e = (c lsl 10) lor e
  let co m = m lsr 10
  let ex m = m land 1023

  let rec add (p : poly) (q : poly) : poly =
    match p, q with
    | [], r | r, [] -> r
    | mp :: p', mq :: q' ->
      let ep = ex mp and eq = ex mq in
      if key ep > key eq then mp :: add p' q
      else if key ep < key eq then mq :: add p q'
      else begin
        let c = (co mp + co mq) mod md in
        if c = 0 then add p' q' else mono c ep :: add p' q'
      end

  let cmul c e (p : poly) : poly =
    List.map
      (fun m ->
        let ep = ex m in
        mono (co m * c mod md) (pack (ex_of ep + ex_of e) (ey_of ep + ey_of e)))
      p

  let neg (p : poly) = List.map (fun m -> mono (md - co m) (ex m)) p

  let monic (p : poly) =
    match p with
    | [] -> []
    | m :: _ -> cmul (inv (co m)) 0 p

  let rec normal_form (p : poly) basis : poly =
    match p with
    | [] -> []
    | m :: rest ->
      let cp = co m and ep = ex m in
      (match List.find_opt (fun g ->
         match g with
         | g0 :: _ -> divides (ex g0) ep
         | [] -> false) basis
       with
       | Some (g0 :: _ as g) ->
         let eg = ex g0 in
         let factor = cp * inv (co g0) mod md in
         let reducer = neg (cmul factor (expt_sub ep eg) g) in
         normal_form (add p reducer) basis
       | Some [] | None -> m :: normal_form rest basis)

  let spoly f g =
    match f, g with
    | mf :: _, mg :: _ ->
      let ef = ex mf and eg = ex mg in
      let l = expt_lcm ef eg in
      let uf = cmul (inv (co mf)) (expt_sub l ef) f in
      let ug = cmul (inv (co mg)) (expt_sub l eg) g in
      add uf (neg ug)
    | _, _ -> []

  (* [inputs] as [system] gives them: (coefficient, exponent) lists *)
  let buchberger inputs =
    let inputs = List.map (List.map (fun (c, e) -> mono c e)) inputs in
    let basis = ref (List.filter (fun p -> p <> []) (List.map monic inputs)) in
    let pairs = ref [] in
    let n = List.length !basis in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        pairs := (List.nth !basis i, List.nth !basis j) :: !pairs
      done
    done;
    while !pairs <> [] do
      match !pairs with
      | [] -> ()
      | (f, g) :: rest ->
        pairs := rest;
        let r = monic (normal_form (spoly f g) (List.rev !basis)) in
        if r <> [] then begin
          List.iter (fun b -> pairs := (b, r) :: !pairs) !basis;
          basis := !basis @ [ r ]
        end
    done;
    !basis

  let checksum basis =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun a m -> (a + (co m * 1031) + ex m) land 0x3FFFFFFF)
          acc p)
      (List.length basis * 7) basis
end

let system ~seed =
  let prng = Support.Prng.create ~seed in
  let c () = 1 + Support.Prng.int prng (md - 1) in
  [ [ (1, pack 2 0); (c (), pack 0 1); (c (), pack 0 0) ];   (* x^2 + ay + b *)
    [ (1, pack 0 2); (c (), pack 1 0); (c (), pack 0 0) ];   (* y^2 + cx + d *)
    [ (1, pack 1 1); (c (), pack 0 0) ] ]                    (* xy + e *)

(* --- simulated version --- *)

(* monomial cell record: [I coeff; I expt; P next] *)

let run rt ~scale =
  let s_scratch = R.register_site rt ~name:"gb.scratch_mono" in
  let s_basis_mono = R.register_site rt ~name:"gb.basis_mono" in
  let s_basis_cons = R.register_site rt ~name:"gb.basis_cons" in
  let s_pair = R.register_site rt ~name:"gb.pair" in
  (* generic frames; slot 0/1 = poly args, 2..4 = temporaries *)
  let k_add = R.register_frame rt ~name:"gb.add" ~slots:(Dsl.slots "ppppp") in
  let k_cmul = R.register_frame rt ~name:"gb.cmul" ~slots:(Dsl.slots "ppp") in
  let k_nf = R.register_frame rt ~name:"gb.normal_form" ~slots:(Dsl.slots "ppppp") in
  let k_sp = R.register_frame rt ~name:"gb.spoly" ~slots:(Dsl.slots "ppppp") in
  let k_copy = R.register_frame rt ~name:"gb.copy" ~slots:(Dsl.slots "ppp") in
  let k_main = R.register_frame rt ~name:"gb.main" ~slots:(Dsl.slots "pppppp") in
  let coeff src = R.field_int rt ~obj:src ~idx:0 in
  let expt src = R.field_int rt ~obj:src ~idx:1 in
  let cons_mono ~site ~dst ~c ~e ~next_slot =
    R.alloc_record3 rt ~site ~mask:0b100 ~dst
      (R.imm c) (R.imm e) (R.slot next_slot)
  in
  (* Each polynomial operation runs in a fresh frame, takes its
     polynomial arguments as operands read in the caller, and returns the
     result's word, which the caller stores at once.  The call bodies are
     built once per run. *)
  (* add two polys held in slots 0 and 1 of a fresh frame *)
  let rec add_body () =
    if R.is_nil rt (R.slot 0) then R.word rt (R.slot 1)
    else if R.is_nil rt (R.slot 1) then R.word rt (R.slot 0)
    else begin
      let cp = coeff (R.slot 0) and ep = expt (R.slot 0) in
      let cq = coeff (R.slot 1) and eq = expt (R.slot 1) in
      if key ep > key eq then begin
        R.load_field rt ~obj:(R.slot 0) ~idx:2 ~dst:(R.to_slot 2);
        R.set rt (R.to_slot 3) (sim_add (R.slot 2) (R.slot 1));
        cons_mono ~site:s_scratch ~dst:(R.to_slot 4) ~c:cp ~e:ep ~next_slot:3;
        R.word rt (R.slot 4)
      end
      else if key ep < key eq then begin
        R.load_field rt ~obj:(R.slot 1) ~idx:2 ~dst:(R.to_slot 2);
        R.set rt (R.to_slot 3) (sim_add (R.slot 0) (R.slot 2));
        cons_mono ~site:s_scratch ~dst:(R.to_slot 4) ~c:cq ~e:eq ~next_slot:3;
        R.word rt (R.slot 4)
      end
      else begin
        let c = (cp + cq) mod md in
        R.load_field rt ~obj:(R.slot 0) ~idx:2 ~dst:(R.to_slot 2);
        R.load_field rt ~obj:(R.slot 1) ~idx:2 ~dst:(R.to_slot 3);
        let rest = sim_add (R.slot 2) (R.slot 3) in
        if c = 0 then rest
        else begin
          R.set rt (R.to_slot 3) rest;
          cons_mono ~site:s_scratch ~dst:(R.to_slot 4) ~c ~e:ep ~next_slot:3;
          R.word rt (R.slot 4)
        end
      end
    end
  and sim_add p q = R.call2 rt ~key:k_add p q add_body () in
  (* multiply poly (slot 0) by coefficient c and monomial e, passed
     packed as [c * 1024 + e] (e < 1024) *)
  let rec cmul_body ce =
    if R.is_nil rt (R.slot 0) then R.word rt R.nil
    else begin
      let c = ce / 1024 and e = ce mod 1024 in
      let cp = coeff (R.slot 0) and ep = expt (R.slot 0) in
      R.load_field rt ~obj:(R.slot 0) ~idx:2 ~dst:(R.to_slot 1);
      R.set rt (R.to_slot 1) (R.call1 rt ~key:k_cmul (R.slot 1) cmul_body ce);
      let c' = cp * c mod md in
      let e' = pack (ex_of ep + ex_of e) (ey_of ep + ey_of e) in
      cons_mono ~site:s_scratch ~dst:(R.to_slot 2) ~c:c' ~e:e' ~next_slot:1;
      R.word rt (R.slot 2)
    end
  in
  let sim_cmul c e p = R.call1 rt ~key:k_cmul p cmul_body ((c * 1024) + e) in
  let sim_neg p = sim_cmul (md - 1) 0 p in
  let monic_body () =
    let c = coeff (R.slot 0) in
    sim_cmul (inv c) 0 (R.slot 0)
  in
  let sim_monic p =
    if R.is_nil rt p then R.word rt p
    else R.call1 rt ~key:k_cmul p monic_body ()
  in
  (* normal form of poly (slot 0) w.r.t. the basis (slot 1, a cons list
     of poly pointers) *)
  let rec nf_body () =
    if R.is_nil rt (R.slot 0) then R.word rt R.nil
    else begin
      let cp = coeff (R.slot 0) and ep = expt (R.slot 0) in
      (* find a reducer: first basis poly whose lead divides ep *)
      R.move rt (R.slot 1) (R.to_slot 2);
      let reducer_found = ref false in
      while (not !reducer_found) && not (R.is_nil rt (R.slot 2)) do
        R.load_field rt ~obj:(R.slot 2) ~idx:0 ~dst:(R.to_slot 3);
        if divides (expt (R.slot 3)) ep then reducer_found := true
        else Dsl.list_advance rt ~list:2
      done;
      if !reducer_found then begin
        (* slot 3 holds g *)
        let cg = coeff (R.slot 3) and eg = expt (R.slot 3) in
        let factor = cp * inv cg mod md in
        R.set rt (R.to_slot 4) (sim_cmul factor (expt_sub ep eg) (R.slot 3));
        R.set rt (R.to_slot 4) (sim_neg (R.slot 4));
        (* the reduced poly is passed on in an argument register, as
           TIL passes arguments: no frame slot of this call changes *)
        R.set rt (R.to_reg 0) (sim_add (R.slot 0) (R.slot 4));
        sim_nf (R.reg 0) (R.slot 1)
      end
      else begin
        R.load_field rt ~obj:(R.slot 0) ~idx:2 ~dst:(R.to_slot 2);
        R.set rt (R.to_slot 3) (sim_nf (R.slot 2) (R.slot 1));
        cons_mono ~site:s_scratch ~dst:(R.to_slot 4) ~c:cp ~e:ep ~next_slot:3;
        R.word rt (R.slot 4)
      end
    end
  and sim_nf p basis = R.call2 rt ~key:k_nf p basis nf_body () in
  let spoly_body () =
    let cf = coeff (R.slot 0) and ef = expt (R.slot 0) in
    let cg = coeff (R.slot 1) and eg = expt (R.slot 1) in
    let l = expt_lcm ef eg in
    R.set rt (R.to_slot 2) (sim_cmul (inv cf) (expt_sub l ef) (R.slot 0));
    R.set rt (R.to_slot 3) (sim_cmul (inv cg) (expt_sub l eg) (R.slot 1));
    R.set rt (R.to_slot 3) (sim_neg (R.slot 3));
    sim_add (R.slot 2) (R.slot 3)
  in
  let sim_spoly f g = R.call2 rt ~key:k_sp f g spoly_body () in
  (* copy a poly into long-lived basis cells *)
  let rec copy () =
    if R.is_nil rt (R.slot 0) then R.word rt R.nil
    else begin
      let c = coeff (R.slot 0) and e = expt (R.slot 0) in
      R.load_field rt ~obj:(R.slot 0) ~idx:2 ~dst:(R.to_slot 1);
      R.move rt (R.slot 1) (R.to_slot 0);
      R.set rt (R.to_slot 2) (copy ());
      cons_mono ~site:s_basis_mono ~dst:(R.to_slot 2) ~c ~e ~next_slot:2;
      R.word rt (R.slot 2)
    end
  in
  let sim_copy_to_basis p = R.call1 rt ~key:k_copy p copy () in
  (* build a poly literal from a native (c, e) list *)
  let of_native_body p =
    R.move rt R.nil (R.to_slot 2);
    List.iter
      (fun (c, e) ->
        cons_mono ~site:s_scratch ~dst:(R.to_slot 2) ~c ~e ~next_slot:2)
      (List.rev p);
    R.word rt (R.slot 2)
  in
  let sim_of_native p = R.call1 rt ~key:k_copy R.nil of_native_body p in
  let dump_basis () =
    let buf = Buffer.create 256 in
    R.move rt (R.slot 0) (R.to_slot 2);
    while not (R.is_nil rt (R.slot 2)) do
      R.load_field rt ~obj:(R.slot 2) ~idx:0 ~dst:(R.to_slot 3);
      R.move rt (R.slot 3) (R.to_slot 4);
      Buffer.add_string buf "  poly:";
      while not (R.is_nil rt (R.slot 4)) do
        Buffer.add_string buf
          (Printf.sprintf " %d*x%dy%d" (coeff (R.slot 4)) (ex_of (expt (R.slot 4)))
             (ey_of (expt (R.slot 4))));
        R.load_field rt ~obj:(R.slot 4) ~idx:2 ~dst:(R.to_slot 4)
      done;
      Buffer.add_char buf '\n';
      Dsl.list_advance rt ~list:2
    done;
    Buffer.contents buf
  in
  let sim_checksum_basis () =
    (* basis cons list in main slot 0 (most recent first); mirror appends,
       so walk the reversal: collect pointers natively first *)
    let acc = ref 0 and count = ref 0 in
    R.move rt (R.slot 0) (R.to_slot 2);
    let polys = ref [] in
    while not (R.is_nil rt (R.slot 2)) do
      R.load_field rt ~obj:(R.slot 2) ~idx:0 ~dst:(R.to_slot 3);
      incr count;
      (* accumulate monomial checksum for this poly *)
      let poly_sum = ref 0 in
      R.move rt (R.slot 3) (R.to_slot 4);
      while not (R.is_nil rt (R.slot 4)) do
        let c = coeff (R.slot 4) and e = expt (R.slot 4) in
        poly_sum := (!poly_sum + (c * 1031) + e) land 0x3FFFFFFF;
        R.load_field rt ~obj:(R.slot 4) ~idx:2 ~dst:(R.to_slot 4)
      done;
      polys := !poly_sum :: !polys;
      Dsl.list_advance rt ~list:2
    done;
    (* the mirror's fold seeds its accumulator with 7 per basis element *)
    acc := !count * 7;
    List.iter (fun s -> acc := (!acc + s) land 0x3FFFFFFF) !polys;
    (!count, !acc)
  in
  R.call0 rt ~key:k_main (fun () ->
    for sys = 1 to scale do
      let inputs = system ~seed:(0x6B0 + sys) in
      let native_basis = Native.buchberger inputs in
      let expected = Native.checksum native_basis in
      (* slot 0 = basis list (newest first), slot 1 = pair queue *)
      R.move rt R.nil (R.to_slot 0);
      R.move rt R.nil (R.to_slot 1);
      (* basis := monic inputs (in order), rooting each polynomial in the
         basis list before the next is built — a native list of simulated
         pointers would go stale across the collections the construction
         triggers *)
      List.iter
        (fun p ->
          R.set rt (R.to_slot 2) (sim_of_native p);
          R.set rt (R.to_slot 2) (sim_monic (R.slot 2));
          R.alloc_record2 rt ~site:s_basis_cons ~mask:0b11 ~dst:(R.to_slot 0)
            (R.slot 2) (R.slot 0))
        inputs;
      (* basis list is newest-first; element i of the mirror's basis is at
         position (len - 1 - i) from the head *)
      let basis_len = ref (List.length inputs) in
      let nth_basis i =
        let from_head = !basis_len - 1 - i in
        R.move rt (R.slot 0) (R.to_slot 2);
        for _ = 1 to from_head do
          Dsl.list_advance rt ~list:2
        done;
        R.load_field rt ~obj:(R.slot 2) ~idx:0 ~dst:(R.to_slot 2);
        R.word rt (R.slot 2)
      in
      (* pair queue: records [I i; I j; P next], LIFO like the mirror *)
      let push_pair i j =
        R.alloc_record3 rt ~site:s_pair ~mask:0b100 ~dst:(R.to_slot 1)
          (R.imm i) (R.imm j) (R.slot 1)
      in
      let n = List.length inputs in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          push_pair i j
        done
      done;
      while not (R.is_nil rt (R.slot 1)) do
        let i = R.field_int rt ~obj:(R.slot 1) ~idx:0 in
        let j = R.field_int rt ~obj:(R.slot 1) ~idx:1 in
        R.load_field rt ~obj:(R.slot 1) ~idx:2 ~dst:(R.to_slot 1);
        R.set rt (R.to_slot 3) (nth_basis i);
        R.set rt (R.to_slot 4) (nth_basis j);
        R.set rt (R.to_slot 3) (sim_spoly (R.slot 3) (R.slot 4));
        R.set rt (R.to_slot 3) (sim_nf (R.slot 3) (R.slot 0));
        R.set rt (R.to_slot 3) (sim_monic (R.slot 3));
        if not (R.is_nil rt (R.slot 3)) then begin
          (* new basis element: pair it with everything, then append *)
          R.set rt (R.to_slot 3) (sim_copy_to_basis (R.slot 3));
          for b = 0 to !basis_len - 1 do
            push_pair b !basis_len
          done;
          R.alloc_record2 rt ~site:s_basis_cons ~mask:0b11 ~dst:(R.to_slot 0)
            (R.slot 3) (R.slot 0);
          incr basis_len
        end
      done;
      let count, acc = sim_checksum_basis () in
      if count <> List.length native_basis || acc <> expected then
        failwith
          (Printf.sprintf
             "grobner: system %d basis (%d, %d), want (%d, %d)\n%s" sys count
             acc (List.length native_basis) expected (dump_basis ()))
    done)
    ()

let workload =
  { Spec.name = "grobner";
    description =
      "Groebner basis computation (Buchberger over GF(101), two \
       variables, graded-lex order)";
    paper_lines = 904;
    default_scale = 12;
    scale_range = (1, max_int);
    run }
