type kind =
  | Semispace_kind
  | Generational_kind

type t =
  | Semispace of Semispace.t
  | Generational of Generational.t

let kind = function
  | Semispace _ -> Semispace_kind
  | Generational _ -> Generational_kind

let alloc t hdr ~birth =
  match t with
  | Semispace s -> Semispace.alloc s hdr ~birth
  | Generational g -> Generational.alloc g hdr ~birth

let alloc_pretenured t hdr ~birth =
  match t with
  | Semispace s -> Semispace.alloc s hdr ~birth
  | Generational g -> Generational.alloc_pretenured g hdr ~birth

let record_update t ~obj ~loc =
  match t with
  | Semispace s ->
    let st = Semispace.stats s in
    st.Gc_stats.pointer_updates <- st.Gc_stats.pointer_updates + 1
  | Generational g -> Generational.record_update g ~obj ~loc

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
