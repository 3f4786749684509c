(* Knuth-Bendix (Table 1): completion, here for string rewriting over a
   four-letter alphabet with the shortlex order.  Equations are
   normalized against the rule set, oriented into rules, and critical
   pairs (overlaps and containments) are queued — no interreduction, an
   equation budget bounds the run, and critical pairs longer than
   [max_word_len] are discarded (same-length rules otherwise make pair
   lengths add without bound); all three pragmatics are noted in
   DESIGN.md.

   The memory shape matches the paper's: the rule database grows
   monotonically (rules and their words are long-lived, Figure 2 shows
   their sites at 99%+ old), rewriting scratch dies at once, and —
   crucially — every rewrite attempt recurses through the rule list with
   one simulated frame per rule, so the stack deepens with the database
   (the paper reports a 4234-frame peak and 76% of GC time spent
   scanning it).

   A native mirror runs the identical algorithm in the identical order;
   rule-set size and checksum must match exactly. *)

module R = Gsc.Runtime

let alphabet = 4

let word_hash w = List.fold_left (fun a s -> ((a * 5) + s + 1) land 0x3FFFFFFF) 0 w

let max_word_len = 12

(* shortlex: longer is greater; same length falls back to lex *)
let rec lex_gt a b =
  match a, b with
  | [], _ | _, [] -> false
  | x :: a', y :: b' -> x > y || (x = y && lex_gt a' b')

let shortlex_gt a b =
  let la = List.length a and lb = List.length b in
  la > lb || (la = lb && lex_gt a b)

(* After each rule installation the workload normalizes a batch of probe
   words against the database.  Completion implementations spend most of
   their time rewriting; the probes reproduce that cost profile.  The
   probe phase runs below a non-tail recursive walk over the whole rule
   list (the SML original's non-tail list traversals), so a stack one
   frame per database entry stays live across many collections — exactly
   the persistent deep stack of the paper's Table 2 (1336-frame average,
   116.9 new frames per collection). *)
let probes_per_rule = 2
let probe_word_len = 8

let relations ~count =
  let prng = Support.Prng.create ~seed:0x6B2 in
  let word () =
    let len = 2 + Support.Prng.int prng 4 in
    List.init len (fun _ -> Support.Prng.int prng alphabet)
  in
  List.init count (fun _ -> (word (), word ()))

(* --- the algorithm, natively (the mirror) --- *)

module Native = struct
  let rec match_prefix word lhs =
    match lhs, word with
    | [], rest -> Some rest
    | _, [] -> None
    | l :: lhs', w :: word' -> if l = w then match_prefix word' lhs' else None

  let rec try_rules_at word rules =
    match rules with
    | [] -> None
    | (lhs, rhs) :: rest ->
      (match match_prefix word lhs with
       | Some remainder -> Some (rhs @ remainder)
       | None -> try_rules_at word rest)

  let rec rewrite word rules =
    match word with
    | [] -> None
    | w :: tail ->
      (match try_rules_at word rules with
       | Some w' -> Some w'
       | None ->
         (match rewrite tail rules with
          | Some t' -> Some (w :: t')
          | None -> None))

  let rec normalize word rules =
    match rewrite word rules with
    | Some w' -> normalize w' rules
    | None -> word

  let rec take k l = if k = 0 then [] else
    match l with [] -> [] | x :: r -> x :: take (k - 1) r

  let rec drop k l = if k = 0 then l else
    match l with [] -> [] | _ :: r -> drop (k - 1) r

  (* critical pairs of (l1 -> r1) with (l2 -> r2), in generation order *)
  let critical_pairs (l1, r1) (l2, r2) =
    let n1 = List.length l1 and n2 = List.length l2 in
    let acc = ref [] in
    (* overlaps: a suffix of l1 equals a prefix of l2 *)
    for k = 1 to min n1 n2 do
      if drop (n1 - k) l1 = take k l2 then
        acc := (r1 @ drop k l2, take (n1 - k) l1 @ r2) :: !acc
    done;
    (* containment: l2 occurs strictly inside l1 *)
    if n2 < n1 then
      for i = 0 to n1 - n2 do
        if take n2 (drop i l1) = l2 then
          acc := (r1, take i l1 @ r2 @ drop (i + n2) l1) :: !acc
      done;
    List.filter
      (fun (u, v) ->
        List.length u <= max_word_len && List.length v <= max_word_len)
      (List.rev !acc)

  let complete ~relations ~max_eqs =
    let rules = ref [] in        (* newest first *)
    let queue = ref relations in (* LIFO *)
    let processed = ref 0 in
    while !queue <> [] && !processed < max_eqs do
      match !queue with
      | [] -> ()
      | (u, v) :: rest ->
        queue := rest;
        incr processed;
        let nu = normalize u !rules in
        let nv = normalize v !rules in
        if nu <> nv then begin
          let l, r = if shortlex_gt nu nv then (nu, nv) else (nv, nu) in
          let rule = (l, r) in
          (* overlaps with every existing rule (newest first), both
             orders, then the self-overlap *)
          let eqs =
            List.concat_map
              (fun old -> critical_pairs rule old @ critical_pairs old rule)
              !rules
            @ critical_pairs rule rule
          in
          queue := eqs @ !queue;
          rules := rule :: !rules
        end
    done;
    !rules

  let checksum rules =
    List.fold_left
      (fun acc (l, r) ->
        (acc + (word_hash l * 31) + word_hash r) land 0x3FFFFFFF)
      (List.length rules * 13) rules
end

(* --- simulated version --- *)

let run rt ~scale =
  let max_eqs = 40 * scale in
  let input = relations ~count:scale in
  let native_rules = Native.complete ~relations:input ~max_eqs in
  let expected_count = List.length native_rules in
  let expected_sum = Native.checksum native_rules in
  let s_scratch = R.register_site rt ~name:"kb.scratch_sym" in
  let s_try = R.register_site rt ~name:"kb.try_box" in
  let s_eq = R.register_site rt ~name:"kb.equation" in
  let s_eq_word = R.register_site rt ~name:"kb.eq_word" in
  let s_rule = R.register_site rt ~name:"kb.rule" in
  let s_rule_sym = R.register_site rt ~name:"kb.rule_sym" in
  let s_rule_cons = R.register_site rt ~name:"kb.rule_cons" in
  (* globals: 0 = equation queue, 1 = rules list *)
  let g_queue = 0 and g_rules = 1 in
  let k_main = R.register_frame rt ~name:"kb.main" ~slots:(Dsl.slots "pppppp") in
  let k_match = R.register_frame rt ~name:"kb.match_prefix" ~slots:(Dsl.slots "pppp") in
  let k_tryrules = R.register_frame rt ~name:"kb.try_rules" ~slots:(Dsl.slots "pppppp") in
  let k_rewrite = R.register_frame rt ~name:"kb.rewrite" ~slots:(Dsl.slots "ppppp") in
  let k_append = R.register_frame rt ~name:"kb.append" ~slots:(Dsl.slots "pppp") in
  let k_word = R.register_frame rt ~name:"kb.word_util" ~slots:(Dsl.slots "pppp") in
  let k_step = R.register_frame rt ~name:"kb.complete_step" ~slots:(Dsl.slots "pppppp") in
  let head l = R.field_int rt ~obj:l ~idx:0 in
  (* A call body returns the word of its result, which the caller stores
     at once; an integer word stands for "no result", since every result
     is a pointer or null.  The bodies are built once per run. *)
  let none = R.word rt (R.imm 0) in
  let found (w : R.word) = (w :> int) <> (none :> int) in
  (* build a simulated word from a native one, in site [!word_site] *)
  let word_site = ref 0 in
  let of_native_body w =
    R.move rt R.nil (R.to_slot 0);
    List.iter
      (fun s ->
        R.alloc_record2 rt ~site:!word_site ~mask:0b10 ~dst:(R.to_slot 0)
          (R.imm s) (R.slot 0))
      (List.rev w);
    R.word rt (R.slot 0)
  in
  let of_native ~site w =
    word_site := site;
    R.call0 rt ~key:k_word of_native_body w
  in
  (* read a simulated word back to a native list (verification only) *)
  let to_native_body () =
    let acc = ref [] in
    while not (R.is_nil rt (R.slot 0)) do
      acc := head (R.slot 0) :: !acc;
      Dsl.list_advance rt ~list:0
    done;
    List.rev !acc
  in
  let to_native w = R.call1 rt ~key:k_word w to_native_body () in
  (* append two words into scratch cells *)
  let rec append_body () =
    if R.is_nil rt (R.slot 0) then R.word rt (R.slot 1)
    else begin
      let h = head (R.slot 0) in
      R.load_field rt ~obj:(R.slot 0) ~idx:1 ~dst:(R.to_slot 2);
      R.set rt (R.to_slot 2) (append (R.slot 2) (R.slot 1));
      R.alloc_record2 rt ~site:s_scratch ~mask:0b10 ~dst:(R.to_slot 3)
        (R.imm h) (R.slot 2);
      R.word rt (R.slot 3)
    end
  and append a b = R.call2 rt ~key:k_append a b append_body () in
  (* match_prefix: does lhs prefix word?  Returns the remainder. *)
  let rec match_body () =
    if R.is_nil rt (R.slot 1) then R.word rt (R.slot 0)
    else if R.is_nil rt (R.slot 0) then none
    else if head (R.slot 0) <> head (R.slot 1) then none
    else begin
      R.load_field rt ~obj:(R.slot 0) ~idx:1 ~dst:(R.to_slot 2);
      R.load_field rt ~obj:(R.slot 1) ~idx:1 ~dst:(R.to_slot 3);
      match_prefix (R.slot 2) (R.slot 3)
    end
  and match_prefix word lhs = R.call2 rt ~key:k_match word lhs match_body () in
  (* first rule (in database order) rewriting at the head position;
     one simulated frame per database entry — the deep-stack driver *)
  let rec try_rules_body () =
    if R.is_nil rt (R.slot 1) then none
    else begin
      (* a short-lived box per attempted rule (the comparison closure);
         this is where the benchmark's allocation happens while the
         stack is deepest.  It is dead on arrival: unroot it at once so
         the collector never copies it. *)
      R.alloc_record1 rt ~site:s_try ~mask:0 ~dst:(R.to_slot 4) (R.imm 0);
      R.move rt R.nil (R.to_slot 4);
      R.load_field rt ~obj:(R.slot 1) ~idx:0 ~dst:(R.to_slot 2);
      R.load_field rt ~obj:(R.slot 2) ~idx:0 ~dst:(R.to_slot 3);
      (* slot 3 = lhs *)
      let remainder = match_prefix (R.slot 0) (R.slot 3) in
      if found remainder then begin
        R.set rt (R.to_slot 4) remainder;
        R.load_field rt ~obj:(R.slot 2) ~idx:1 ~dst:(R.to_slot 5);
        append (R.slot 5) (R.slot 4)
      end
      else begin
        R.load_field rt ~obj:(R.slot 1) ~idx:1 ~dst:(R.to_slot 5);
        try_rules_at (R.slot 0) (R.slot 5)
      end
    end
  and try_rules_at word rules =
    R.call2 rt ~key:k_tryrules word rules try_rules_body ()
  in
  let rec rewrite_body () =
    if R.is_nil rt (R.slot 0) then none
    else
      let w' = try_rules_at (R.slot 0) (R.slot 1) in
      if found w' then w'
      else begin
        let h = head (R.slot 0) in
        R.load_field rt ~obj:(R.slot 0) ~idx:1 ~dst:(R.to_slot 2);
        let t' = rewrite (R.slot 2) (R.slot 1) in
        if not (found t') then none
        else begin
          R.set rt (R.to_slot 3) t';
          R.alloc_record2 rt ~site:s_scratch ~mask:0b10 ~dst:(R.to_slot 4)
            (R.imm h) (R.slot 3);
          R.word rt (R.slot 4)
        end
      end
  and rewrite word rules =
    R.call2 rt ~key:k_rewrite word rules rewrite_body ()
  in
  let normalize_body () =
    let continue_ = ref true in
    while !continue_ do
      let w' = rewrite (R.slot 0) (R.global g_rules) in
      if found w' then R.set rt (R.to_slot 0) w' else continue_ := false
    done;
    R.word rt (R.slot 0)
  in
  let normalize w = R.call1 rt ~key:k_word w normalize_body () in
  R.call0 rt ~key:k_main (fun () ->
    R.move rt R.nil (R.to_global g_queue);
    R.move rt R.nil (R.to_global g_rules);
    (* push an equation (u in slot a, v in slot b of main) onto the queue *)
    let push_eq_from_slots a b =
      assert (a <> 5 && b <> 5);
      R.move rt (R.global g_queue) (R.to_slot 5);
      R.alloc_record3 rt ~site:s_eq ~mask:0b111 ~dst:(R.to_slot 5)
        (R.slot a) (R.slot b) (R.slot 5);
      R.move rt (R.slot 5) (R.to_global g_queue)
    in
    (* seed the queue: LIFO, so push in reverse to process in order *)
    List.iter
      (fun (u, v) ->
        R.set rt (R.to_slot 0) (of_native ~site:s_eq_word u);
        R.set rt (R.to_slot 1) (of_native ~site:s_eq_word v);
        push_eq_from_slots 0 1)
      (List.rev input);
    let processed = ref 0 in
    let rule_count = ref 0 in
    (* Each equation is processed one stack level deeper than the last,
       without a tail call, so the chain of activation records persists
       until the completion finishes — the paper's Knuth-Bendix stack
       shape (deep, rarely unwound, few new frames per collection). *)
    let rec complete_rec () =
      if (not (R.is_nil rt (R.global g_queue))) && !processed < max_eqs then
        ignore (1 + R.call0 rt ~key:k_step process_one () : int)
    and process_one () =
      incr processed;
      (* pop: u -> slot 0, v -> slot 1 *)
      R.load_field rt ~obj:(R.global g_queue) ~idx:0 ~dst:(R.to_slot 0);
      R.load_field rt ~obj:(R.global g_queue) ~idx:1 ~dst:(R.to_slot 1);
      R.load_field rt ~obj:(R.global g_queue) ~idx:2 ~dst:(R.to_slot 2);
      R.move rt (R.slot 2) (R.to_global g_queue);
      R.set rt (R.to_slot 0) (normalize (R.slot 0));
      R.set rt (R.to_slot 1) (normalize (R.slot 1));
      let nu = to_native (R.slot 0) in
      let nv = to_native (R.slot 1) in
      if nu <> nv then begin
        let l, r = if shortlex_gt nu nv then (nu, nv) else (nv, nu) in
        (* the new rule's words are copied into long-lived cells *)
        R.set rt (R.to_slot 0) (of_native ~site:s_rule_sym l);
        R.set rt (R.to_slot 1) (of_native ~site:s_rule_sym r);
        R.alloc_record2 rt ~site:s_rule ~mask:0b11 ~dst:(R.to_slot 2)
          (R.slot 0) (R.slot 1);
        (* critical pairs against the database (native word math over
           the native copies, simulated allocation for the equations) *)
        let eqs = ref [] in
        R.move rt (R.global g_rules) (R.to_slot 3);
        while not (R.is_nil rt (R.slot 3)) do
          R.load_field rt ~obj:(R.slot 3) ~idx:0 ~dst:(R.to_slot 4);
          R.load_field rt ~obj:(R.slot 4) ~idx:0 ~dst:(R.to_slot 5);
          let old_l = to_native (R.slot 5) in
          R.load_field rt ~obj:(R.slot 4) ~idx:1 ~dst:(R.to_slot 5);
          let old_r = to_native (R.slot 5) in
          eqs :=
            !eqs
            @ Native.critical_pairs (l, r) (old_l, old_r)
            @ Native.critical_pairs (old_l, old_r) (l, r);
          Dsl.list_advance rt ~list:3
        done;
        let eqs = !eqs @ Native.critical_pairs (l, r) (l, r) in
        (* LIFO push in reverse so that the queue head order matches the
           mirror's [eqs @ queue] *)
        List.iter
          (fun (u, v) ->
            R.set rt (R.to_slot 3) (of_native ~site:s_eq_word u);
            R.set rt (R.to_slot 4) (of_native ~site:s_eq_word v);
            push_eq_from_slots 3 4)
          (List.rev eqs);
        (* install the rule *)
        R.move rt (R.global g_rules) (R.to_slot 3);
        R.alloc_record2 rt ~site:s_rule_cons ~mask:0b11 ~dst:(R.to_slot 3)
          (R.slot 2) (R.slot 3);
        R.move rt (R.slot 3) (R.to_global g_rules);
        incr rule_count;
        (* rewriting probes: the completion's dominant cost *)
        let prng = Support.Prng.create ~seed:(0x9B0 + !rule_count) in
        for _ = 1 to probes_per_rule do
          let w =
            List.init probe_word_len (fun _ -> Support.Prng.int prng alphabet)
          in
          R.set rt (R.to_slot 0) (of_native ~site:s_scratch w);
          R.set rt (R.to_slot 0) (normalize (R.slot 0))
        done
      end;
      (* recurse for the remaining equations; this frame stays live
         underneath all of them (non-tail) *)
      complete_rec ();
      0
    in
    complete_rec ();
    (* verify against the mirror *)
    if !rule_count <> expected_count then
      failwith
        (Printf.sprintf "kb: %d rules, want %d" !rule_count expected_count);
    let sum = ref (!rule_count * 13) in
    let sums = ref [] in
    R.move rt (R.global g_rules) (R.to_slot 3);
    while not (R.is_nil rt (R.slot 3)) do
      R.load_field rt ~obj:(R.slot 3) ~idx:0 ~dst:(R.to_slot 4);
      R.load_field rt ~obj:(R.slot 4) ~idx:0 ~dst:(R.to_slot 5);
      let l = to_native (R.slot 5) in
      R.load_field rt ~obj:(R.slot 4) ~idx:1 ~dst:(R.to_slot 5);
      let r = to_native (R.slot 5) in
      sums := ((word_hash l * 31) + word_hash r) :: !sums;
      Dsl.list_advance rt ~list:3
    done;
    (* the mirror folds newest-first over its rules list; our sims list
       is also newest-first, but we collected into [sums] reversed *)
    List.iter (fun s -> sum := (!sum + s) land 0x3FFFFFFF) (List.rev !sums);
    if !sum <> expected_sum then
      failwith (Printf.sprintf "kb: checksum %d, want %d" !sum expected_sum))
    ()

let workload =
  { Spec.name = "knuth-bendix";
    description =
      "Knuth-Bendix completion for string rewriting (shortlex order, \
       critical pairs, no interreduction; equation budget bounded)";
    paper_lines = 618;
    default_scale = 10;
    scale_range = (1, max_int);
    run }
