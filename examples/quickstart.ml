(* Quickstart: the mutator API in a nutshell.

   Builds a linked list of squares on the simulated heap under the
   generational collector, sums it, and prints the collector statistics.

   Run with:  dune exec examples/quickstart.exe *)

module R = Gsc.Runtime

let () =
  (* 1 MB memory budget, generational collection *)
  let rt = R.create (Gsc.Config.generational ~budget_bytes:(1024 * 1024)) in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  (* every allocation names a site — the unit of pretenuring decisions *)
  let site_cons = R.register_site rt ~name:"quickstart.cons" in
  (* every simulated function describes its frame to the collector:
     slot 0 holds a pointer (the list), slot 1 a raw integer *)
  let key =
    R.register_frame rt ~name:"quickstart.main"
      ~slots:[| Rstack.Trace.Ptr; Rstack.Trace.Non_ptr |]
  in
  let total =
    R.call0 rt ~key (fun () ->
      R.move rt R.nil (R.to_slot 0);
      for i = 1 to 10_000 do
        (* cons cell: { square; next } — the collector may run inside
           this allocation; the result lands rooted in slot 0 *)
        R.alloc_record2 rt ~site:site_cons ~mask:0b10 ~dst:(R.to_slot 0)
          (R.imm (i * i)) (R.slot 0)
      done;
      (* walk the list *)
      let sum = ref 0 in
      while not (R.is_nil rt (R.slot 0)) do
        sum := !sum + R.field_int rt ~obj:(R.slot 0) ~idx:0;
        R.load_field rt ~obj:(R.slot 0) ~idx:1 ~dst:(R.to_slot 0)
      done;
      !sum)
      ()
  in
  Printf.printf "sum of squares 1..10000 = %d\n" total;
  let stats = R.stats rt in
  Printf.printf "collections: %d minor + %d major\n"
    stats.Collectors.Gc_stats.minor_gcs stats.Collectors.Gc_stats.major_gcs;
  Printf.printf "allocated %s, copied %s, max live %s\n"
    (Support.Units.bytes (Collectors.Gc_stats.bytes_allocated stats))
    (Support.Units.bytes (Collectors.Gc_stats.bytes_copied stats))
    (Support.Units.bytes (Collectors.Gc_stats.max_live_bytes stats));
  Printf.printf "heap check: %d live objects\n" (R.check_heap rt)
