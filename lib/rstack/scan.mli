(** The two-pass stack scan (Section 2.3), with generational reuse
    (Section 5).

    Pass one walks from the initial frame upwards maintaining the register
    pointer-status vector (callee-save traces make frames undecodable in
    isolation); as each frame's status is known its roots are emitted.
    With a scan cache and a non-zero valid prefix, decoding restarts from
    the prefix boundary using the cached status vector instead of from the
    bottom.

    Two modes:

    - [Full]: every root is reported — required by semispace collections
      and by major collections, since all live data moves.  Cached frames
      are *reused* (their root slot lists are replayed without decoding).
    - [Minor]: only roots in frames beyond the valid prefix are reported.
      Under a nursery with immediate promotion, roots in previously
      scanned frames cannot point into the nursery (their referents were
      promoted, and inactive frame slots cannot be written), so cached
      frames are skipped entirely. *)

type mode =
  | Minor
  | Full

type result = {
  mutable depth : int;           (** stack depth at this scan *)
  mutable frames_decoded : int;  (** frames whose trace entry was walked *)
  mutable frames_reused : int;   (** frames served from the cache *)
  mutable slots_decoded : int;   (** total slot traces examined *)
  mutable roots_visited : int;
      (** root locations reported, registers included *)
}

(** A zeroed result, for {!run_into}. *)
val result : unit -> result

(** [run ~stack ~regs ~cache ~valid_prefix ~mode ~roots] scans, appends
    the roots it finds to [roots] (cached prefix in Full mode, then fresh
    frames bottom-up, each frame's slots in order, then live registers),
    and refreshes [cache] so that its entries cover the whole stack at
    return time.  A frame slot's root is the cell
    [(Stack_.words stack, base + slot)]: the collector must use it
    before the next push, which may move the words array.

    @raise Invalid_argument if [valid_prefix] exceeds the cache or stack
    depth, or if a cached serial does not match the frame at its depth
    (a violated marker invariant). *)
val run :
  stack:Stack_.t ->
  regs:Reg_file.t ->
  cache:Scan_cache.t ->
  valid_prefix:int ->
  mode:mode ->
  roots:Root.Buf.t ->
  result

(** [run_into r ...] is {!run} writing its figures into [r] instead of a
    fresh record: a collector that reuses one [r] scans without
    allocating. *)
val run_into :
  result ->
  stack:Stack_.t ->
  regs:Reg_file.t ->
  cache:Scan_cache.t ->
  valid_prefix:int ->
  mode:mode ->
  roots:Root.Buf.t ->
  unit
