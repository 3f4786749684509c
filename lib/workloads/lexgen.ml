(* Lexgen (Table 1): a lexical-analyzer generator.  Token regexes are
   compiled to a Thompson NFA built in the simulated heap, then subset
   construction produces the DFA: states are sorted NFA-id lists, the
   state table is a growing association list, and successors are explored
   by depth-first recursion — so the simulated stack deepens with the
   number of DFA states, and the DFA table itself is the long-lived data
   (the paper's Lexgen holds ~3.5 MB live with a 1802-frame stack peak).

   Verification is order-independent: the mirror computes the canonical
   DFA with ordinary OCaml sets and both sides compare state counts and
   set-hash checksums. *)

module R = Gsc.Runtime

let nsyms = 8

type regex =
  | Chr of int
  | Seq of regex * regex
  | Alt of regex * regex
  | Star of regex

let keyword syms =
  match syms with
  | [] -> invalid_arg "lexgen: empty keyword"
  | s :: rest -> List.fold_left (fun acc c -> Seq (acc, Chr c)) (Chr s) rest

let tokens ~count =
  let prng = Support.Prng.create ~seed:0x1E4 in
  let kw () =
    let len = 3 + Support.Prng.int prng 4 in
    keyword (List.init len (fun _ -> Support.Prng.int prng 6))
  in
  let ident = Seq (Chr 6, Star (Alt (Chr 6, Chr 7))) in
  let number = Seq (Chr 7, Star (Chr 7)) in
  let rec alts n acc = if n = 0 then acc else alts (n - 1) (Alt (acc, kw ())) in
  alts count (Alt (ident, number))

(* count Thompson states so the simulated state array can be sized *)
let rec count_states = function
  | Chr _ -> 2
  | Seq (a, b) -> count_states a + count_states b
  | Alt (a, b) -> count_states a + count_states b + 2
  | Star a -> count_states a + 2

(* --- native mirror (canonical subset construction) --- *)

module Native = struct
  type nfa = {
    mutable next_id : int;
    mutable trans : (int * int * int) list;  (* (src, sym, dst) *)
    mutable eps : (int * int) list;          (* (src, dst) *)
  }

  let fresh n =
    let id = n.next_id in
    n.next_id <- id + 1;
    id

  (* identical state-numbering order to the simulated construction *)
  let rec thompson n = function
    | Chr c ->
      let s = fresh n and e = fresh n in
      n.trans <- (s, c, e) :: n.trans;
      (s, e)
    | Seq (a, b) ->
      let sa, ea = thompson n a in
      let sb, eb = thompson n b in
      n.eps <- (ea, sb) :: n.eps;
      (sa, eb)
    | Alt (a, b) ->
      let s = fresh n in
      let sa, ea = thompson n a in
      let sb, eb = thompson n b in
      let e = fresh n in
      n.eps <- (s, sa) :: (s, sb) :: (ea, e) :: (eb, e) :: n.eps;
      (s, e)
    | Star a ->
      let s = fresh n in
      let sa, ea = thompson n a in
      let e = fresh n in
      n.eps <- (s, sa) :: (s, e) :: (ea, sa) :: (ea, e) :: n.eps;
      (s, e)

  module Iset = Set.Make (Int)

  let closure n set =
    let rec go frontier acc =
      if Iset.is_empty frontier then acc
      else begin
        let nxt =
          List.fold_left
            (fun a (src, dst) ->
              if Iset.mem src frontier && not (Iset.mem dst acc) then
                Iset.add dst a
              else a)
            Iset.empty n.eps
        in
        go nxt (Iset.union acc nxt)
      end
    in
    go set set

  let move n set sym =
    List.fold_left
      (fun a (src, c, dst) ->
        if c = sym && Iset.mem src set then Iset.add dst a else a)
      Iset.empty n.trans

  let hash_set s = Iset.fold (fun id a -> ((a * 131) + id + 1) land 0x3FFFFFFF) s 0

  let dfa regex =
    let n = { next_id = 0; trans = []; eps = [] } in
    let start, _final = thompson n regex in
    let initial = closure n (Iset.singleton start) in
    let table = Hashtbl.create 64 in
    Hashtbl.replace table initial ();
    let state_sum = ref (hash_set initial) in
    let trans_sum = ref 0 in
    let rec explore set =
      for sym = 0 to nsyms - 1 do
        let dst = closure n (move n set sym) in
        if not (Iset.is_empty dst) then begin
          trans_sum :=
            (!trans_sum + hash_set set + ((sym + 1) * hash_set dst))
            land 0x3FFFFFFF;
          if not (Hashtbl.mem table dst) then begin
            Hashtbl.replace table dst ();
            state_sum := (!state_sum + hash_set dst) land 0x3FFFFFFF;
            explore dst
          end
        end
      done
    in
    explore initial;
    (Hashtbl.length table, !state_sum, !trans_sum)
end

(* --- simulated version --- *)

let run rt ~scale =
  let regex = tokens ~count:scale in
  let nstates = count_states regex in
  let expected_states, expected_ssum, expected_tsum = Native.dfa regex in
  let s_state = R.register_site rt ~name:"lex.nfa_state" in
  let s_trans = R.register_site rt ~name:"lex.nfa_trans" in
  let s_eps = R.register_site rt ~name:"lex.nfa_eps" in
  let s_set = R.register_site rt ~name:"lex.dfa_set" in
  let s_entry = R.register_site rt ~name:"lex.dfa_entry" in
  let s_scratch = R.register_site rt ~name:"lex.scratch" in
  (* main: 0 = state array, 1 = dfa table, 2..7 = temporaries *)
  let k_main = R.register_frame rt ~name:"lex.main" ~slots:(Dsl.slots "pppppppp") in
  (* set ops: 0 = list arg, 1 = cursor / result, 2 = scratch *)
  let k_insert = R.register_frame rt ~name:"lex.insert" ~slots:(Dsl.slots "ppp") in
  let k_closure = R.register_frame rt ~name:"lex.closure" ~slots:(Dsl.slots "pppppp") in
  let k_move = R.register_frame rt ~name:"lex.move" ~slots:(Dsl.slots "pppppp") in
  let k_explore = R.register_frame rt ~name:"lex.process" ~slots:(Dsl.slots "pppppppp") in
  (* NFA state record: [I id; P trans; P eps] where
     trans cell = [I sym; I dst; P next], eps cell = [I dst; P next] *)
  let next_id = ref 0 in
  let fresh_state () =
    (* allocate the state record and file it in the state array (slot 0
       of the main frame — build runs directly under main) *)
    let id = !next_id in
    incr next_id;
    id
  in
  let state_slot_in_main = 0 in
  R.call0 rt ~key:k_main (fun () ->
    R.alloc_ptr_array rt ~site:s_state ~dst:(R.to_slot state_slot_in_main)
      ~len:nstates;
    let g_states = 1 in
    R.move rt (R.slot state_slot_in_main) (R.to_global g_states);
    let make_state () =
      let id = fresh_state () in
      R.alloc_record3 rt ~site:s_state ~mask:0b110 ~dst:(R.to_slot 2)
        (R.imm id) R.nil R.nil;
      R.store_field rt ~obj:(R.slot state_slot_in_main) ~idx:id
        ~ptr:true (R.slot 2);
      id
    in
    let add_trans src sym dst =
      R.load_field rt ~obj:(R.slot state_slot_in_main) ~idx:src
        ~dst:(R.to_slot 2);
      R.load_field rt ~obj:(R.slot 2) ~idx:1 ~dst:(R.to_slot 3);
      R.alloc_record3 rt ~site:s_trans ~mask:0b100 ~dst:(R.to_slot 3)
        (R.imm sym) (R.imm dst) (R.slot 3);
      (* reload the state record: the allocation may have moved it *)
      R.load_field rt ~obj:(R.slot state_slot_in_main) ~idx:src
        ~dst:(R.to_slot 2);
      R.store_field rt ~obj:(R.slot 2) ~idx:1 ~ptr:true (R.slot 3)
    in
    let add_eps src dst =
      R.load_field rt ~obj:(R.slot state_slot_in_main) ~idx:src
        ~dst:(R.to_slot 2);
      R.load_field rt ~obj:(R.slot 2) ~idx:2 ~dst:(R.to_slot 3);
      R.alloc_record2 rt ~site:s_eps ~mask:0b10 ~dst:(R.to_slot 3)
        (R.imm dst) (R.slot 3);
      R.load_field rt ~obj:(R.slot state_slot_in_main) ~idx:src
        ~dst:(R.to_slot 2);
      R.store_field rt ~obj:(R.slot 2) ~idx:2 ~ptr:true (R.slot 3)
    in
    (* Thompson construction, same numbering as the mirror *)
    let rec thompson = function
      | Chr c ->
        let s = make_state () and e = make_state () in
        add_trans s c e;
        (s, e)
      | Seq (a, b) ->
        let sa, ea = thompson a in
        let sb, eb = thompson b in
        add_eps ea sb;
        (sa, eb)
      | Alt (a, b) ->
        let s = make_state () in
        let sa, ea = thompson a in
        let sb, eb = thompson b in
        let e = make_state () in
        add_eps s sa;
        add_eps s sb;
        add_eps ea e;
        add_eps eb e;
        (s, e)
      | Star a ->
        let s = make_state () in
        let sa, ea = thompson a in
        let e = make_state () in
        add_eps s sa;
        add_eps s e;
        add_eps ea sa;
        add_eps ea e;
        (s, e)
    in
    let start, _final = thompson regex in
    (* sorted-insert an id into the set list in slot 0 of a fresh frame;
       returns the new list's word (the list itself if present).  Each
       call body below is built once per run and returns the word of
       its result, which the caller stores at once. *)
    let rec insert_body id =
      if R.is_nil rt (R.slot 0) then begin
        R.alloc_record2 rt ~site:s_set ~mask:0b10 ~dst:(R.to_slot 1)
          (R.imm id) R.nil;
        R.word rt (R.slot 1)
      end
      else begin
        let h = Dsl.list_head_int rt ~list:0 in
        if h = id then R.word rt (R.slot 0)
        else if h > id then begin
          R.alloc_record2 rt ~site:s_set ~mask:0b10 ~dst:(R.to_slot 1)
            (R.imm id) (R.slot 0);
          R.word rt (R.slot 1)
        end
        else begin
          R.load_field rt ~obj:(R.slot 0) ~idx:1 ~dst:(R.to_slot 1);
          R.set rt (R.to_slot 1) (insert_sorted (R.slot 1) id);
          R.alloc_record2 rt ~site:s_set ~mask:0b10 ~dst:(R.to_slot 2)
            (R.imm h) (R.slot 1);
          R.word rt (R.slot 2)
        end
      end
    and insert_sorted set id = R.call1 rt ~key:k_insert set insert_body id in
    (* epsilon closure of the set in [set_val]; needs the state array *)
    let closure_body () =
      (* slot 0 = acc set, slot 1 = states, slot 2 = frontier stack,
         slot 3 = cursor, slot 4 = state rec, slot 5 = eps cursor *)
      R.move rt (R.slot 0) (R.to_slot 2);
      (* frontier: reuse the set list itself as the initial worklist *)
      while not (R.is_nil rt (R.slot 2)) do
        let id = Dsl.list_head_int rt ~list:2 in
        Dsl.list_advance rt ~list:2;
        R.load_field rt ~obj:(R.slot 1) ~idx:id ~dst:(R.to_slot 4);
        R.load_field rt ~obj:(R.slot 4) ~idx:2 ~dst:(R.to_slot 5);
        while not (R.is_nil rt (R.slot 5)) do
          let dst = R.field_int rt ~obj:(R.slot 5) ~idx:0 in
          (* member test against the accumulated set *)
          let present = ref false in
          R.move rt (R.slot 0) (R.to_slot 3);
          while (not !present) && not (R.is_nil rt (R.slot 3)) do
            if Dsl.list_head_int rt ~list:3 = dst then present := true
            else Dsl.list_advance rt ~list:3
          done;
          if not !present then begin
            R.set rt (R.to_slot 0) (insert_sorted (R.slot 0) dst);
            (* push onto the frontier *)
            R.alloc_record2 rt ~site:s_scratch ~mask:0b10 ~dst:(R.to_slot 2)
              (R.imm dst) (R.slot 2)
          end;
          R.load_field rt ~obj:(R.slot 5) ~idx:1 ~dst:(R.to_slot 5)
        done
      done;
      R.word rt (R.slot 0)
    in
    let closure set =
      R.call2 rt ~key:k_closure set (R.global 1) closure_body ()
    in
    let move_body sym =
      (* slot 0 = input set cursor, 1 = states, 2 = result,
         3 = state rec, 4 = trans cursor *)
      R.move rt R.nil (R.to_slot 2);
      while not (R.is_nil rt (R.slot 0)) do
        let id = Dsl.list_head_int rt ~list:0 in
        R.load_field rt ~obj:(R.slot 1) ~idx:id ~dst:(R.to_slot 3);
        R.load_field rt ~obj:(R.slot 3) ~idx:1 ~dst:(R.to_slot 4);
        while not (R.is_nil rt (R.slot 4)) do
          let s = R.field_int rt ~obj:(R.slot 4) ~idx:0 in
          let d = R.field_int rt ~obj:(R.slot 4) ~idx:1 in
          if s = sym then R.set rt (R.to_slot 2) (insert_sorted (R.slot 2) d);
          R.load_field rt ~obj:(R.slot 4) ~idx:2 ~dst:(R.to_slot 4)
        done;
        Dsl.list_advance rt ~list:0
      done;
      R.word rt (R.slot 2)
    in
    let dfa_move set sym =
      R.call2 rt ~key:k_move set (R.global 1) move_body sym
    in
    (* set equality, no allocation; clobbers slots 6 and 7 *)
    let sets_equal a_src b_src =
      R.move rt a_src (R.to_slot 6);
      R.move rt b_src (R.to_slot 7);
      let eq = ref true in
      let continue_ = ref true in
      while !continue_ do
        match R.is_nil rt (R.slot 6), R.is_nil rt (R.slot 7) with
        | true, true -> continue_ := false
        | true, false | false, true ->
          eq := false;
          continue_ := false
        | false, false ->
          if Dsl.list_head_int rt ~list:6 <> Dsl.list_head_int rt ~list:7 then begin
            eq := false;
            continue_ := false
          end
          else begin
            Dsl.list_advance rt ~list:6;
            Dsl.list_advance rt ~list:7
          end
      done;
      !eq
    in
    (* clobbers slot 7 *)
    let hash_set set_src =
      let h = ref 0 in
      R.move rt set_src (R.to_slot 7);
      while not (R.is_nil rt (R.slot 7)) do
        h := ((!h * 131) + Dsl.list_head_int rt ~list:7 + 1) land 0x3FFFFFFF;
        Dsl.list_advance rt ~list:7
      done;
      !h
    in
    (* DFA table in main slot 1: entries [P set; P next] *)
    let state_count = ref 0 in
    let state_sum = ref 0 in
    let trans_sum = ref 0 in
    (* keep the DFA table in a global so every frame can reach it *)
    let g_table = 0 in
    R.move rt R.nil (R.to_global g_table);
    (* clobbers slots 4..7 *)
    let table_mem set_slot =
      let found = ref false in
      R.move rt (R.global g_table) (R.to_slot 4);
      while (not !found) && not (R.is_nil rt (R.slot 4)) do
        R.load_field rt ~obj:(R.slot 4) ~idx:0 ~dst:(R.to_slot 5);
        if sets_equal (R.slot 5) (R.slot set_slot) then found := true
        else Dsl.list_advance rt ~list:4
      done;
      !found
    in
    (* clobbers slots 4 and 7 *)
    let table_add set_slot =
      R.move rt (R.global g_table) (R.to_slot 4);
      R.alloc_record2 rt ~site:s_entry ~mask:0b11 ~dst:(R.to_slot 4)
        (R.slot set_slot) (R.slot 4);
      R.move rt (R.slot 4) (R.to_global g_table);
      incr state_count;
      state_sum := (!state_sum + hash_set (R.slot set_slot)) land 0x3FFFFFFF
    in
    (* Worklist processing by non-tail recursion: each pending DFA state
       is expanded one stack level deeper than the last and the whole
       chain of activation records persists until the construction is
       done — the SML lexgen's non-tail traversals give it the deepest
       average stack of the paper's benchmarks after Knuth-Bendix. *)
    let rec process_body () =
      (* slot 0 = pending worklist (cons cells of sets), slot 1 = the
         set being expanded, slot 2 = successor; 4..7 scratch *)
      if R.is_nil rt (R.slot 0) then 0
      else begin
        R.load_field rt ~obj:(R.slot 0) ~idx:0 ~dst:(R.to_slot 1);
        R.load_field rt ~obj:(R.slot 0) ~idx:1 ~dst:(R.to_slot 0);
        for sym = 0 to nsyms - 1 do
          R.set rt (R.to_slot 2) (dfa_move (R.slot 1) sym);
          if not (R.is_nil rt (R.slot 2)) then begin
            R.set rt (R.to_slot 2) (closure (R.slot 2));
            trans_sum :=
              (!trans_sum + hash_set (R.slot 1)
               + ((sym + 1) * hash_set (R.slot 2)))
              land 0x3FFFFFFF;
            if not (table_mem 2) then begin
              table_add 2;
              (* push the new state onto the worklist *)
              R.alloc_record2 rt ~site:s_scratch ~mask:0b11 ~dst:(R.to_slot 0)
                (R.slot 2) (R.slot 0)
            end
          end
        done;
        (* non-tail: this frame stays live under the rest of the work *)
        1 + process (R.slot 0)
      end
    and process pending = R.call1 rt ~key:k_explore pending process_body () in
    (* initial state *)
    R.set rt (R.to_slot 3) (insert_sorted R.nil start);
    R.set rt (R.to_slot 3) (closure (R.slot 3));
    table_add 3;
    R.move rt (R.slot 3) (R.to_slot 2);
    R.alloc_record2 rt ~site:s_scratch ~mask:0b11 ~dst:(R.to_slot 3)
      (R.slot 2) R.nil;
    ignore (process (R.slot 3) : int);
    if
      !state_count <> expected_states
      || !state_sum <> expected_ssum
      || !trans_sum <> expected_tsum
    then
      failwith
        (Printf.sprintf "lexgen: dfa (%d, %d, %d), want (%d, %d, %d)"
           !state_count !state_sum !trans_sum expected_states expected_ssum
           expected_tsum))
    ()

let workload =
  { Spec.name = "lexgen";
    description =
      "A lexical-analyzer generator: Thompson NFA construction and \
       subset-construction DFA over an 8-symbol alphabet";
    paper_lines = 1123;
    default_scale = 70;
    scale_range = (1, max_int);
    run }
