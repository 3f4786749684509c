(** The runtime façade: the mutator's view of the TIL-style runtime
    system.

    A simulated program allocates heap objects, keeps every live value in
    a *rooted location* (a stack slot, a register or a global), pushes and
    pops activation records described by trace-table entries, and raises
    simulated exceptions.  The garbage collector may run inside any
    allocation, so the one discipline workloads must follow is:

    {b a word read out of the runtime is only valid until the next
    allocation} — read it out of a rooted location and immediately store
    it into another rooted location (or into a fresh object).  Operations
    take {!src}/{!dst} operands instead of values and re-read their
    locations after any collection they perform, so the common cases are
    safe by construction; a {!word} or {!Mem.Value.t} held across an
    allocation is not.

    Operands are immediate ints, built once and passed by value, so no
    operation on a workload's path allocates host memory (DESIGN.md
    §5r).

    Frames, slots and the exception machinery mirror Section 2.3 of the
    paper; stack markers and the scan cache implement Section 5;
    pretenuring implements Section 6/7.2. *)

type t

val create : Config.t -> t

(** Release all simulated memory. *)
val destroy : t -> unit

val config : t -> Config.t

(** {1 Static registration}

    Simulated functions register their frame layouts (trace-table
    entries) and allocation sites once, before running. *)

(** [register_frame t ~name ~slots] registers a trace-table entry with
    all-non-pointer register info; [register_frame_regs] takes explicit
    register traces. *)
val register_frame :
  t -> name:string -> slots:Rstack.Trace.slot_trace array -> int

val register_frame_regs :
  t ->
  name:string ->
  slots:Rstack.Trace.slot_trace array ->
  regs:Rstack.Trace.reg_trace array ->
  int

(** [register_site t ~name] allocates a fresh allocation-site id. *)
val register_site : t -> name:string -> int

val site_name : t -> int -> string
val site_count : t -> int

(** {1 Operands}

    An operand is an immediate int.  An immediate [imm n] is exactly
    [Mem.Value.encode_int n] (low bit 1), so its range is the heap's int
    range; a location is [(idx lsl 3) lor (kind lsl 1)] (low bit 0;
    kind 0 {!nil}, 1 a slot, 2 a register, 3 a global), so [to_slot i]
    and [slot i] are the same int.  Build the operands a loop
    uses once, or inline: either way nothing is allocated. *)

(** Where an operation reads a value from. *)
type src = private int

(** Where an operation writes its result. *)
type dst = private int

(** An encoded machine word read out of a location: valid until the next
    allocation. *)
type word = private int

(** [imm n]: the integer [n]. *)
val imm : int -> src

(** The null pointer. *)
val nil : src

(** [slot i]: slot [i] of the current frame; [reg r]: register [r];
    [global g]: entry [g] of the global table. *)
val slot : int -> src

val reg : int -> src
val global : int -> src

val to_slot : int -> dst
val to_reg : int -> dst
val to_global : int -> dst

(** [word t src] reads [src]'s word; [set t dst w] stores one;
    [move t src dst] is [set t dst (word t src)].  None of them counts as
    a mutator operation. *)
val word : t -> src -> word

val set : t -> dst -> word -> unit
val move : t -> src -> dst -> unit

(** [read]/[write] are {!word}/{!set} through the boxed [Mem.Value.t]:
    for tests and inspection, not for a workload's loop. *)
val read : t -> src -> Mem.Value.t

val write : t -> dst -> Mem.Value.t -> unit

(** [int_of t src] reads an operand that must be an integer. *)
val int_of : t -> src -> int

(** {1 Frames}

    [call0 t ~key body x] pushes a frame for trace-table entry [key],
    runs [body x], pops the frame and returns [body]'s result.
    [call1]…[call3] also store their operands into slots [0..n-1] of the
    new frame; the operands are read in the caller, before the push.
    Hoist [body] out of the loop that calls it (one closure per run, not
    per call) and pass what varies through [x].
    @raise Invalid_argument if the arguments outnumber the frame's
    slots; the check runs before the push, so the stack is left as it
    was. *)

val call0 : t -> key:int -> ('a -> 'b) -> 'a -> 'b
val call1 : t -> key:int -> src -> ('a -> 'b) -> 'a -> 'b
val call2 : t -> key:int -> src -> src -> ('a -> 'b) -> 'a -> 'b
val call3 : t -> key:int -> src -> src -> src -> ('a -> 'b) -> 'a -> 'b

val depth : t -> int

(** {1 Allocation}

    All allocation operations write the new object's pointer to [dst]
    after any collection they trigger, so the result is immediately
    rooted.  Field sources are read after the potential collection. *)

(** [alloc_record1 t ~site ~mask ~dst a0] … [alloc_record5] allocate
    a record of one to five fields, initialised from the operands in
    order; bit [i] of [mask] is set iff field [i] is a pointer.  A
    pointer field must read as a pointer or [nil], an integer field as
    an integer.  Under scan elision (Section 7.2) a pointer field of a
    pretenured record initialised to a nursery object is also recorded
    in the write barrier, and counted in
    [Gc_stats.region_scan_fallbacks].
    A mismatch raises with the record already allocated: the fields
    before it stored, the rest zero.  A nursery record whose every
    operand reads and checks clean is written once, straight into its
    grant; the heap, the counters and the exceptions are those of
    {!Internal.alloc_record} all the same.
    @raise Invalid_argument on a mismatch, or on a mask wider than the
    record. *)
val alloc_record1 : t -> site:int -> mask:int -> dst:dst -> src -> unit

val alloc_record2 :
  t -> site:int -> mask:int -> dst:dst -> src -> src -> unit

val alloc_record3 :
  t -> site:int -> mask:int -> dst:dst -> src -> src -> src -> unit

val alloc_record4 :
  t -> site:int -> mask:int -> dst:dst -> src -> src -> src -> src -> unit

val alloc_record5 :
  t -> site:int -> mask:int -> dst:dst -> src -> src -> src -> src -> src ->
  unit

(** [alloc_ptr_array t ~site ~dst ~len] allocates a pointer array,
    initialised to null pointers. *)
val alloc_ptr_array : t -> site:int -> dst:dst -> len:int -> unit

(** [alloc_nonptr_array t ~site ~dst ~len] allocates a non-pointer array,
    zero-initialised. *)
val alloc_nonptr_array : t -> site:int -> dst:dst -> len:int -> unit

(** {1 Heap access} *)

(** [load_field t ~obj ~idx ~dst] reads field [idx] of the object that
    [obj] points to. *)
val load_field : t -> obj:src -> idx:int -> dst:dst -> unit

(** [store_field t ~obj ~idx ~ptr src] writes one field, through the
    write barrier when [ptr] (a pointer store).  [ptr] must agree with
    the field's pointerness in the object's header.
    @raise Invalid_argument otherwise. *)
val store_field : t -> obj:src -> idx:int -> ptr:bool -> src -> unit

(** [field_int t ~obj ~idx] reads an integer field directly. *)
val field_int : t -> obj:src -> idx:int -> int

(** [obj_length t ~obj] is the payload length of the referenced object. *)
val obj_length : t -> obj:src -> int

(** [obj_site t ~obj] is the allocation site recorded in the header. *)
val obj_site : t -> obj:src -> int

(** [is_nil t src] tests for the null pointer. *)
val is_nil : t -> src -> bool

(** [same_obj t a b] is physical equality of two pointer operands. *)
val same_obj : t -> src -> src -> bool

(** {1 Exceptions}

    Simulated SML exceptions: [raise_exn] transfers control to the most
    recently installed handler, unwinding the simulated stack without
    running stack-marker stubs (the watermark [M] covers the collector's
    reuse decision, Section 5). *)

(** [try_with t body ~handler] installs a handler at the current depth.
    The exception value reaches the handler through the dedicated
    exception cell, which is a GC root. *)
val try_with : t -> (unit -> 'a) -> handler:(unit -> 'a) -> 'a

(** [raise_exn t src] raises with the given value; never returns.
    @raise Failure if no handler is installed. *)
val raise_exn : t -> src -> 'a

(** Read the current exception value (inside a handler). *)
val exn_value : t -> Mem.Value.t

(** {1 Collector control and statistics} *)

(** Force a full collection. *)
val collect_now : t -> unit

val stats : t -> Collectors.Gc_stats.t

(** Maximum simulated stack depth reached so far. *)
val max_stack_depth : t -> int

(** Stub activations (mutator-side marker cost) so far. *)
val marker_stub_hits : t -> int

(** [observe_exit_deaths t] reports every object still live as dying now
    (the paper's profiler observes deaths at program exit too, which is
    where the large average ages of Figure 2's long-lived sites come
    from).  Call once, after the workload finishes and before taking the
    profile.  No-op without profiling. *)
val observe_exit_deaths : t -> unit

(** The heap profile gathered so far; [None] unless [profiling] is on. *)
val profile : t -> Heap_profile.Profile_data.t option

(** {1 Invariant checking}

    [check_heap t] walks every root and object reachable from the roots
    and verifies header sanity and that pointer fields reference live
    blocks; used by the test-suite and property tests.  Returns the
    number of live objects visited. *)
val check_heap : t -> int

(** [young_roots t] is the number of root words, over the same full
    enumeration as [check_heap] (stack slots, live registers, every
    global and the exception cell), that point into the nursery; always
    [0] under the semispace collector.  With [verify_heap], a minor
    under immediate promotion ([tenure_threshold = 1]) fails unless it
    leaves this at [0], and unless no heap field [check_heap] reaches
    points into the nursery either. *)
val young_roots : t -> int

(** {1 Reference-twin access}

    The layer below the operands, exposed so that the safe-tier
    twin of the heap-access operations (test/runtime_ref.ml) can run
    against the same runtime state.  Workloads never need it. *)
module Internal : sig
  (** The simulated memory the runtime allocates into. *)
  val memory : t -> Mem.Memory.t

  (** The collector the runtime allocates through, for code that
      collects directly (the bench's per-minor rows). *)
  val collector : t -> Collectors.Collector.t

  (** [alloc_object t hdr] allocates an object with header [hdr] through
      the collector's allocation entry (pretenured when the per-site
      pretenure table says so), as every [alloc_*] operation does; it
      may collect.  The header-record form, for the safe-tier twin. *)
  val alloc_object : t -> Mem.Header.t -> Mem.Addr.t

  (** [alloc_record t ~site ~mask ~dst fields] is [alloc_record1]…
      [alloc_record5] at any arity, always on their general path (grant
      and zero, then read, check and store each field): for tests that
      need other widths, and the reference the written-once path is
      checked against. *)
  val alloc_record : t -> site:int -> mask:int -> dst:dst -> src array -> unit

  (** [record_update t ~obj ~loc] runs the write barrier for a pointer
      store into [loc], a field of [obj]. *)
  val record_update : t -> obj:Mem.Addr.t -> loc:Mem.Addr.t -> unit
end
