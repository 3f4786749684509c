(* Tests for the support library: vectors, the deterministic PRNG, text
   grids and unit formatting. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- Vec --- *)

let vec_basics () =
  let v = Support.Vec.create () in
  check_bool "empty" true (Support.Vec.is_empty v);
  for i = 0 to 99 do
    Support.Vec.push v i
  done;
  check_int "length" 100 (Support.Vec.length v);
  check_int "get" 42 (Support.Vec.get v 42);
  Support.Vec.set v 42 (-1);
  check_int "set" (-1) (Support.Vec.get v 42);
  check_int "top" 99 (Support.Vec.top v);
  check_int "pop" 99 (Support.Vec.pop v);
  check_int "after pop" 99 (Support.Vec.length v);
  Support.Vec.truncate v 10;
  check_int "truncate" 10 (Support.Vec.length v);
  Support.Vec.truncate v 50;
  check_int "truncate never grows" 10 (Support.Vec.length v);
  check_int "fold" 45 (Support.Vec.fold_left ( + ) 0 v);
  Support.Vec.clear v;
  check_bool "cleared" true (Support.Vec.is_empty v)

let vec_bounds () =
  let v = Support.Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Support.Vec.get v 3));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty")
    (fun () -> ignore (Support.Vec.pop (Support.Vec.create ())))

let vec_roundtrip_prop =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun l -> Support.Vec.to_list (Support.Vec.of_list l) = l)

let vec_push_pop_prop =
  QCheck.Test.make ~name:"vec behaves like a stack" ~count:200
    QCheck.(list (option int))
    (fun ops ->
      let v = Support.Vec.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
            Support.Vec.push v x;
            model := x :: !model;
            true
          | None ->
            (match !model with
             | [] -> Support.Vec.is_empty v
             | x :: rest ->
               model := rest;
               Support.Vec.pop v = x))
        ops
      && Support.Vec.to_list v = List.rev !model)

(* --- Prng --- *)

let prng_deterministic () =
  let a = Support.Prng.create ~seed:7 in
  let b = Support.Prng.create ~seed:7 in
  for _ = 1 to 100 do
    check_int "same stream" (Support.Prng.int a 1000) (Support.Prng.int b 1000)
  done

let prng_seeds_differ () =
  let a = Support.Prng.create ~seed:1 in
  let b = Support.Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Support.Prng.int a 1000000 = Support.Prng.int b 1000000 then incr same
  done;
  check_bool "streams differ" true (!same < 5)

let prng_bounds_prop =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:300
    QCheck.(pair (int_range 1 10000) (int_range 0 1000000))
    (fun (bound, seed) ->
      let p = Support.Prng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let x = Support.Prng.int p bound in
        if x < 0 || x >= bound then ok := false
      done;
      !ok)

let prng_split () =
  let parent = Support.Prng.create ~seed:9 in
  let child = Support.Prng.split parent in
  let xs = List.init 20 (fun _ -> Support.Prng.int parent 1000) in
  let ys = List.init 20 (fun _ -> Support.Prng.int child 1000) in
  check_bool "split independent" true (xs <> ys)

(* --- Textgrid --- *)

let grid_alignment () =
  let g =
    Support.Textgrid.create ~columns:[ Support.Textgrid.Left; Right ]
  in
  Support.Textgrid.add_row g [ "a"; "1" ];
  Support.Textgrid.add_row g [ "long"; "22" ];
  let out = Support.Textgrid.render g in
  check_str "padded" "a      1\nlong  22\n" out

let grid_arity () =
  let g = Support.Textgrid.create ~columns:[ Support.Textgrid.Left ] in
  Alcotest.check_raises "arity" (Invalid_argument "Textgrid.add_row: arity mismatch")
    (fun () -> Support.Textgrid.add_row g [ "a"; "b" ])

(* --- Units --- *)

let units () =
  check_str "bytes" "512B" (Support.Units.bytes 512);
  check_str "kb" "16KB" (Support.Units.bytes (16 * 1024));
  check_str "mb" "2.5MB" (Support.Units.bytes (5 * 512 * 1024));
  check_str "pct" "76.09%" (Support.Units.percent 0.7609);
  check_str "sec" "8.07" (Support.Units.seconds 8.07);
  check_bool "ratio zero denominator" true (Support.Units.ratio 5. 0. = 0.)

(* --- Int_hashset --- *)

(* [add] reports first sight exactly, across the table's doublings,
   and every key added stays in *)
let hashset_prop =
  QCheck.Test.make ~name:"int hashset = Set of the keys added" ~count:100
    QCheck.(list (int_bound 1_000_000))
    (fun keys ->
      let t = Support.Int_hashset.create () in
      let module S = Set.Make (Int) in
      let firsts =
        List.fold_left
          (fun (ok, seen) k ->
            (ok && Support.Int_hashset.add t k = not (S.mem k seen), S.add k seen))
          (true, S.empty) keys
      in
      fst firsts
      && S.for_all (fun k -> not (Support.Int_hashset.add t k)) (snd firsts))

let hashset_rejects_negative () =
  let t = Support.Int_hashset.create () in
  check_bool "negative key" true
    (match Support.Int_hashset.add t (-1) with
     | _ -> false
     | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "support"
    [ ( "vec",
        [ Alcotest.test_case "basics" `Quick vec_basics;
          Alcotest.test_case "bounds" `Quick vec_bounds;
          QCheck_alcotest.to_alcotest vec_roundtrip_prop;
          QCheck_alcotest.to_alcotest vec_push_pop_prop ] );
      ( "int hashset",
        [ QCheck_alcotest.to_alcotest hashset_prop;
          Alcotest.test_case "negative key" `Quick hashset_rejects_negative ] );
      ( "prng",
        [ Alcotest.test_case "deterministic" `Quick prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick prng_seeds_differ;
          Alcotest.test_case "split" `Quick prng_split;
          QCheck_alcotest.to_alcotest prng_bounds_prop ] );
      ( "textgrid",
        [ Alcotest.test_case "alignment" `Quick grid_alignment;
          Alcotest.test_case "arity" `Quick grid_arity ] );
      ("units", [ Alcotest.test_case "formatting" `Quick units ]) ]
