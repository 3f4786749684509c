(* Properties of the adaptive control plane (lib/control).

   The first three pin the {!Control.Controller} invariants its interface
   promises for the per-site pretenure knob — every decision flips a site
   across the cutoff/demote band and never leaves {0, 1}, and a site
   changed in window [w] is untouchable (so in particular cannot reverse
   direction) before window [w + cooldown + 1] — under adversarial
   observation streams built from extreme archetypes (survival storms,
   sudden quiet, hovering inside the band) exactly because those are the
   streams that tempt a naive rule engine into oscillation.

   The rest run the real thing: a traced adaptive serve run (phase shift
   included) must replay through {!Control.Replay} to the exact
   [policy_update] records it emitted, across {copying, mark_sweep} x
   {classic, packed}; and its decisions must not depend on the pause
   target, because no decision reads a timed quantity. *)

module C = Control.Controller
module P = Control.Params

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- adversarial observation streams --- *)

(* [feed ctl i arch] observes collection [i] of archetype [arch]; every
   archetype allocates at sites 3 and 4 (alternating).
   0: survival storm (95% survive their first collection: enable).
   1: old by fiat (half survive, the other half allocated pretenured:
      100%).
   2: sudden quiet (everything dies young: demote).
   3: hovering inside the 400..800 band (60%: neither).
   4: noise (20..49 objects, so often below min_site_objects, and 0..19
      survivors). *)
let feed ctl i arch =
  let site = 3 + (i mod 2) in
  let rows ~objects ~firsts ~pret =
    for _ = 1 to pret do
      C.note_pretenured ctl site
    done;
    C.observe ctl
      { C.o_alloc = [ (site, objects, 10 * objects) ];
        o_survival = [ (site, firsts, firsts, 10 * firsts) ] }
  in
  match arch with
  | 0 -> rows ~objects:40 ~firsts:38 ~pret:0
  | 1 -> rows ~objects:64 ~firsts:32 ~pret:32
  | 2 -> rows ~objects:64 ~firsts:0 ~pret:0
  | 3 -> rows ~objects:50 ~firsts:30 ~pret:0
  | _ -> rows ~objects:(20 + (i mod 30)) ~firsts:(i mod 20) ~pret:0

let stream_gen =
  QCheck.(
    triple (int_range 1 4) (int_range 0 3)
      (list_of_size Gen.(int_range 10 160) (int_bound 4)))

let fold_stream (window, cooldown, archs) f =
  let p = P.default ~window ~cooldown () in
  let ctl = C.create p ~pretenured:[] in
  List.iteri
    (fun i arch -> f p ctl (feed ctl i arch))
    archs

let signal d k =
  match List.assoc_opt k d.C.d_signals with
  | Some v -> v
  | None -> QCheck.Test.fail_reportf "%s lacks signal %s" d.C.d_knob k

(* knob values stay 0/1: every decision flips a site's routing, and only
   across the band -- enable at or above the cutoff, demote below the
   demote bar *)
let bounds_prop =
  QCheck.Test.make ~name:"knobs never leave bounds" ~count:200
    stream_gen
    (fun case ->
      fold_stream case (fun p ctl decisions ->
          List.iter
            (fun (d : C.decision) ->
              let site = C.site_of_knob d.C.d_knob in
              if d.C.d_knob <> Printf.sprintf "pretenure_site:%d" site then
                QCheck.Test.fail_reportf "unexpected knob %s" d.C.d_knob;
              let old_pm = signal d "old_permille" in
              let objects = signal d "objects" in
              let ok =
                d.C.d_old = 1 - d.C.d_new
                && (d.C.d_new = 0 || d.C.d_new = 1)
                && d.C.d_new = Bool.to_int (C.pretenured ctl site)
                && objects >= p.P.min_site_objects
                && (if d.C.d_new = 1 then old_pm >= p.P.cutoff_permille
                    else old_pm < p.P.demote_permille)
              in
              if not ok then
                QCheck.Test.fail_reportf "decision %s %d->%d at %d‰ of %d"
                  d.C.d_knob d.C.d_old d.C.d_new old_pm objects;
              List.iter
                (fun (k, v) ->
                  if v < 0 then
                    QCheck.Test.fail_reportf "signal %s=%d negative" k v)
                d.C.d_signals)
            decisions);
      true)

(* a site changed in window w cannot change again -- so in particular
   cannot reverse direction -- before window w + cooldown + 1 *)
let cooldown_prop =
  QCheck.Test.make ~name:"no knob reverses within cooldown" ~count:200
    stream_gen
    (fun case ->
      let last : (string, int) Hashtbl.t = Hashtbl.create 8 in
      fold_stream case (fun p _ctl decisions ->
          List.iter
            (fun (d : C.decision) ->
              (match Hashtbl.find_opt last d.C.d_knob with
               | Some w0 when d.C.d_window - w0 <= p.P.cooldown ->
                 QCheck.Test.fail_reportf
                   "%s changed in window %d then again in %d (cooldown %d)"
                   d.C.d_knob w0 d.C.d_window p.P.cooldown
               | Some _ | None -> ());
              Hashtbl.replace last d.C.d_knob d.C.d_window)
            decisions);
      true)

(* window arithmetic on a hostile alternation: with window 1 and
   cooldown 2, a stream flip-flopping between a survival storm and dead
   quiet at one site -- each window demanding the opposite routing --
   must still space that site's changes at least three windows apart. *)
let adversarial_alternation () =
  let p = P.default ~window:1 ~cooldown:2 () in
  let ctl = C.create p ~pretenured:[] in
  let changes = ref [] in
  for i = 0 to 39 do
    (* even ordinals only, so every observation is site 3 *)
    let arch = if i mod 2 = 0 then 0 else 2 in
    List.iter
      (fun (d : C.decision) ->
        check_bool "one site" true (d.C.d_knob = "pretenure_site:3");
        changes := d.C.d_window :: !changes)
      (feed ctl (2 * i) arch)
  done;
  let ws = List.rev !changes in
  check_bool "the alternation provokes pretenure changes" true
    (List.length ws >= 2);
  let rec gaps = function
    | w0 :: (w1 :: _ as rest) ->
      check_bool "gap respects cooldown" true (w1 - w0 > 2);
      gaps rest
    | _ -> ()
  in
  gaps ws

(* determinism of the engine itself: the same stream through two fresh
   controllers yields identical decision lists *)
let engine_deterministic () =
  let p = P.default ~window:2 ~cooldown:1 () in
  let run () =
    let ctl = C.create p ~pretenured:[] in
    List.concat
      (List.init 60 (fun i -> feed ctl i (i mod 5)))
  in
  let ds = run () in
  check_bool "the stream provokes decisions" true (ds <> []);
  check_bool "identical decision streams" true (ds = run ())

(* --- real adaptive runs --- *)

(* The serve workload, phase shift included, under an adaptive collector
   traced to a buffer: the trace lines, the program's checksum and the
   config the run resolved. *)
let shifted_serve ?(major_kind = Collectors.Generational.Copying)
    ?(header_layout = Mem.Header.Classic) slo =
  let cfg =
    { (Gsc.Config.generational ~budget_bytes:(8 * 1024 * 1024)) with
      Gsc.Config.adaptive = true;
      nursery_bytes_max = 64 * 1024;
      major_kind; header_layout; slo }
  in
  let buf = Buffer.create (1 lsl 18) in
  let rep =
    Obs.Trace.with_buffer buf (fun () ->
        let rt = Gsc.Runtime.create cfg in
        Fun.protect ~finally:(fun () -> Gsc.Runtime.destroy rt) @@ fun () ->
        Workloads.Serve.run rt ~phase_shift:600 ~tenants:3 ~sessions:16
          ~requests:1200 ~rate_rps:4000. ~seed:7 ())
  in
  ( String.split_on_char '\n' (Buffer.contents buf),
    rep.Workloads.Serve.checksum,
    cfg )

let policy_updates label lines =
  match Obs.Profile.of_lines lines with
  | Ok p -> p.Obs.Profile.policy_updates
  | Error msg -> Alcotest.failf "%s: profile fold failed: %s" label msg

let one_us = { Obs.Slo.no_target with Obs.Slo.p99_us = Some 1. }

(* Re-derive the policy_update stream offline: Replay.verify must match
   every decision bit-for-bit, for each major collector x header layout,
   and every configuration must have taken at least one decision.  The
   checksum must not depend on the configuration. *)
let replay_fixed_point () =
  let configs =
    [ (Collectors.Generational.Copying, Mem.Header.Classic);
      (Collectors.Generational.Copying, Mem.Header.Packed);
      (Collectors.Generational.Mark_sweep, Mem.Header.Classic);
      (Collectors.Generational.Mark_sweep, Mem.Header.Packed) ]
  in
  let checksums = ref [] in
  List.iter
    (fun (major_kind, header_layout) ->
      let label =
        Printf.sprintf "%s/%s"
          (Collectors.Generational.major_kind_name major_kind)
          (match header_layout with
           | Mem.Header.Classic -> "classic"
           | Mem.Header.Packed -> "packed")
      in
      let lines, checksum, cfg =
        shifted_serve ~major_kind ~header_layout one_us
      in
      checksums := checksum :: !checksums;
      let gcfg = Gsc.Config.generational_config cfg in
      let derived =
        match
          Control.Replay.of_lines (P.default ())
            ~pretenured:gcfg.Collectors.Generational.pretenured_init lines
        with
        | Ok ds -> ds
        | Error msg -> Alcotest.failf "%s: replay failed: %s" label msg
      in
      match
        Control.Replay.verify ~derived ~traced:(policy_updates label lines)
      with
      | Ok n -> check_bool (label ^ " took a decision") true (n > 0)
      | Error msg -> Alcotest.failf "%s: %s" label msg)
    configs;
  match !checksums with
  | c :: rest ->
    List.iter (fun c' -> check_int "checksum is config-independent" c c') rest
  | [] -> ()

(* Decisions read only per-site counts, never a pause: the same seeded
   run under an unmeetable 1 us p99 target and under no target at all
   must take the identical decisions at the identical collections. *)
let decisions_ignore_pause_target () =
  let under slo =
    let lines, _, _ = shifted_serve slo in
    policy_updates "serve" lines
  in
  let tight = under one_us in
  check_bool "the run took decisions" true (tight <> []);
  check_bool "identical decisions with and without a pause target" true
    (tight = under Obs.Slo.no_target)

let () =
  Alcotest.run "control"
    [ ("engine",
       [ QCheck_alcotest.to_alcotest bounds_prop;
         QCheck_alcotest.to_alcotest cooldown_prop;
         Alcotest.test_case "adversarial alternation" `Quick
           adversarial_alternation;
         Alcotest.test_case "deterministic" `Quick engine_deterministic ]);
      ("replay",
       [ Alcotest.test_case "fixed point across configs" `Quick
           replay_fixed_point;
         Alcotest.test_case "decisions ignore the pause target" `Quick
           decisions_ignore_pause_target ]) ]
