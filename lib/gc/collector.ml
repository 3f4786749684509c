type kind =
  | Semispace_kind
  | Generational_kind

type t =
  | Semispace of Semispace.t
  | Generational of Generational.t

let kind = function
  | Semispace _ -> Semispace_kind
  | Generational _ -> Generational_kind

let alloc_fields t ~pretenure ~tag ~len ~mask ~site ~birth =
  match t with
  | Semispace s -> Semispace.alloc s ~tag ~len ~mask ~site ~birth
  | Generational g ->
    if pretenure then
      Generational.alloc_pretenured g ~tag ~len ~mask ~site ~birth
    else Generational.alloc g ~tag ~len ~mask ~site ~birth

let alloc_header t ~pretenure hdr ~birth =
  alloc_fields t ~pretenure
    ~tag:(Mem.Header.tag_of_kind hdr.Mem.Header.kind)
    ~len:hdr.Mem.Header.len
    ~mask:(Mem.Header.mask_of_kind hdr.Mem.Header.kind)
    ~site:hdr.Mem.Header.site ~birth

let alloc t hdr ~birth = alloc_header t ~pretenure:false hdr ~birth
let alloc_pretenured t hdr ~birth = alloc_header t ~pretenure:true hdr ~birth

let record_update t ~obj ~loc =
  match t with
  | Semispace s ->
    let st = Semispace.stats s in
    st.Gc_stats.pointer_updates <- st.Gc_stats.pointer_updates + 1
  | Generational g -> Generational.record_update g ~obj ~loc

let remember t ~obj ~loc =
  match t with
  | Semispace _ -> ()
  | Generational g -> Generational.remember g ~obj ~loc

let in_nursery t a =
  match t with
  | Semispace _ -> false
  | Generational g -> Generational.in_nursery g a

let collect_now = function
  | Semispace s -> Semispace.collect s
  | Generational g -> Generational.full g

let stats = function
  | Semispace s -> Semispace.stats s
  | Generational g -> Generational.stats g

let live_words = function
  | Semispace s -> Semispace.live_words s
  | Generational g -> Generational.live_words g

let flush_site_allocs = function
  | Semispace s -> Semispace.flush_site_allocs s
  | Generational g -> Generational.flush_site_allocs g

let destroy = function
  | Semispace s -> Semispace.destroy s
  | Generational g -> Generational.destroy g
