(* Section 7.2's prediction, live: "In some systems, objects in the
   nursery are not immediately promoted ... objects that are tenured are
   copied several times before being promoted, [so] pretenuring in such
   systems is likely to yield an even greater benefit."

   This example runs a list-building program under tenure thresholds
   1 (the paper's immediate promotion), 2 and 3, with and without
   pretenuring of the long-lived site, and prints the bytes the collector
   copied in each configuration.

   Run with:  dune exec examples/aging_tenure.exe *)

module R = Gsc.Runtime

let budget = 512 * 1024
let nursery = 8 * 1024

let program rt =
  let s_keep = R.register_site rt ~name:"aging.keeper" in
  let s_churn = R.register_site rt ~name:"aging.churn" in
  let key = R.register_frame rt ~name:"aging.main" ~slots:(Workloads.Dsl.slots "pp") in
  R.call0 rt ~key (fun () ->
    for i = 1 to 20_000 do
      R.alloc_record2 rt ~site:s_churn ~mask:0 ~dst:(R.to_slot 1)
        (R.imm i) (R.imm i);
      if i mod 20 = 0 then
        R.alloc_record2 rt ~site:s_keep ~mask:0b10 ~dst:(R.to_slot 0)
          (R.imm i) (R.slot 0)
    done)
    ();
  s_keep

let run ~threshold ~pretenure =
  let policy =
    if pretenure then Gsc.Pretenure.of_sites ~sites:[ 0 ] ~scan_elision:false
    else Gsc.Pretenure.none
  in
  let cfg =
    { (Gsc.Config.generational ~budget_bytes:budget) with
      Gsc.Config.nursery_bytes_max = nursery;
      tenure_threshold = threshold;
      pretenure = policy }
  in
  let rt = R.create cfg in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  ignore (program rt : int);
  let s = R.stats rt in
  (Collectors.Gc_stats.bytes_copied s,
   s.Collectors.Gc_stats.words_pretenured * Mem.Memory.bytes_per_word)

let () =
  Printf.printf
    "threshold | copied (no pretenure) | copied (pretenured) | saved\n";
  Printf.printf
    "----------+-----------------------+---------------------+---------\n";
  List.iter
    (fun threshold ->
      let base, _ = run ~threshold ~pretenure:false in
      let pre, pretenured = run ~threshold ~pretenure:true in
      Printf.printf "%9d | %21s | %19s | %s (pretenured %s)\n" threshold
        (Support.Units.bytes base)
        (Support.Units.bytes pre)
        (Support.Units.bytes (base - pre))
        (Support.Units.bytes pretenured))
    [ 1; 2; 3 ];
  print_newline ();
  print_endline
    "The saving grows with the threshold: every extra collection an object\n\
     must survive before tenure is another copy that pretenuring avoids."
