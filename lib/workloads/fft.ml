(* FFT (Table 1): fast Fourier transform multiplying polynomials.  All
   data lives in large non-pointer arrays that bypass the nursery into
   the large-object space under the generational collector (and are
   copied wholesale under semispace collection — which is exactly why the
   paper's FFT is cheap generationally and expensive under semispace).

   Arithmetic is 16.16 fixed-point so that the simulated heap only holds
   integers; the expected output is produced by a native mirror running
   the identical integer algorithm, so verification is exact. *)

module R = Gsc.Runtime

let fraction_bits = 16
let fix_one = 1 lsl fraction_bits

let fix_of_float x = int_of_float (Float.round (x *. float_of_int fix_one))
let fix_mul a b = (a * b) asr fraction_bits

(* twiddle factors: native tables shared by the simulated run and the
   mirror (the table is compiler-constant data, not simulated heap) *)
let twiddles n ~inverse =
  let sign = if inverse then 1.0 else -1.0 in
  Array.init (n / 2) (fun k ->
    let angle = sign *. 2.0 *. Float.pi *. float_of_int k /. float_of_int n in
    (fix_of_float (cos angle), fix_of_float (sin angle)))

let bit_reverse ~bits i =
  let r = ref 0 in
  for b = 0 to bits - 1 do
    if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
  done;
  !r

(* --- native mirror --- *)

let native_fft ~inverse re im =
  let n = Array.length re in
  let bits = int_of_float (Float.round (Float.log2 (float_of_int n))) in
  let tw = twiddles n ~inverse in
  let cur_re = Array.init n (fun i -> re.(bit_reverse ~bits i)) in
  let cur_im = Array.init n (fun i -> im.(bit_reverse ~bits i)) in
  let cur_re = ref cur_re and cur_im = ref cur_im in
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let step = n / !len in
    let next_re = Array.make n 0 and next_im = Array.make n 0 in
    let i = ref 0 in
    while !i < n do
      for j = 0 to half - 1 do
        let wr, wi = tw.(j * step) in
        let a = !i + j and b = !i + j + half in
        let br = !cur_re.(b) and bi = !cur_im.(b) in
        let tr = fix_mul wr br - fix_mul wi bi in
        let ti = fix_mul wr bi + fix_mul wi br in
        next_re.(a) <- !cur_re.(a) + tr;
        next_im.(a) <- !cur_im.(a) + ti;
        next_re.(b) <- !cur_re.(a) - tr;
        next_im.(b) <- !cur_im.(a) - ti
      done;
      i := !i + !len
    done;
    cur_re := next_re;
    cur_im := next_im;
    len := !len * 2
  done;
  (!cur_re, !cur_im)

let native_multiply p q n =
  let re = Array.make n 0 and im = Array.make n 0 in
  Array.iteri (fun i c -> re.(i) <- c lsl fraction_bits) p;
  Array.iteri (fun i c -> im.(i) <- c lsl fraction_bits) q;
  let fre, fim = native_fft ~inverse:false re im in
  (* p and q packed as real/imaginary parts: unpack the product *)
  let pr = Array.make n 0 and pi = Array.make n 0 in
  for k = 0 to n - 1 do
    let k' = (n - k) mod n in
    let ar = (fre.(k) + fre.(k')) / 2 in
    let ai = (fim.(k) - fim.(k')) / 2 in
    let br = (fim.(k) + fim.(k')) / 2 in
    let bi = (fre.(k') - fre.(k)) / 2 in
    pr.(k) <- fix_mul ar br - fix_mul ai bi;
    pi.(k) <- fix_mul ar bi + fix_mul ai br
  done;
  let rre, rim = native_fft ~inverse:true pr pi in
  ignore rim;
  Array.map (fun v -> (v / n + (fix_one / 2)) asr fraction_bits) rre

let coefficients ~seed half =
  let prng = Support.Prng.create ~seed in
  Array.init half (fun _ -> Support.Prng.int prng 10)

(* --- simulated version --- *)

let run rt ~scale =
  let n = 1 lsl scale in
  let bits = scale in
  let s_buf = R.register_site rt ~name:"fft.buffer" in
  let s_box = R.register_site rt ~name:"fft.box" in
  (* main: 0 = cur_re, 1 = cur_im, 2 = next_re, 3 = next_im, 4 = scratch *)
  let k_main = R.register_frame rt ~name:"fft.main" ~slots:(Dsl.slots "ppppp") in
  let k_fft = R.register_frame rt ~name:"fft.stage" ~slots:(Dsl.slots "ppppp") in
  let get arr i = R.field_int rt ~obj:(R.slot arr) ~idx:i in
  let put arr i v =
    R.store_field rt ~obj:(R.slot arr) ~idx:i ~ptr:false (R.imm v)
  in
  (* simulated fft over the arrays in slots 0/1 of the current frame;
     leaves the result in slots 0/1.  Allocates fresh arrays per stage. *)
  let fft_stages inverse =
    let tw = twiddles n ~inverse in
    (* bit-reversal copy *)
    R.alloc_nonptr_array rt ~site:s_buf ~dst:(R.to_slot 2) ~len:n;
    R.alloc_nonptr_array rt ~site:s_buf ~dst:(R.to_slot 3) ~len:n;
    for i = 0 to n - 1 do
      let j = bit_reverse ~bits i in
      put 2 i (get 0 j);
      put 3 i (get 1 j)
    done;
    R.move rt (R.slot 2) (R.to_slot 0);
    R.move rt (R.slot 3) (R.to_slot 1);
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let step = n / !len in
      R.alloc_nonptr_array rt ~site:s_buf ~dst:(R.to_slot 2) ~len:n;
      R.alloc_nonptr_array rt ~site:s_buf ~dst:(R.to_slot 3) ~len:n;
      let i = ref 0 in
      while !i < n do
        for j = 0 to half - 1 do
          let wr, wi = tw.(j * step) in
          let a = !i + j and b = !i + j + half in
          let br = get 0 b and bi = get 1 b in
          let tr = fix_mul wr br - fix_mul wi bi in
          let ti = fix_mul wr bi + fix_mul wi br in
          let ar = get 0 a and ai = get 1 a in
          put 2 a (ar + tr);
          put 3 a (ai + ti);
          put 2 b (ar - tr);
          put 3 b (ai - ti)
        done;
        i := !i + !len
      done;
      R.move rt (R.slot 2) (R.to_slot 0);
      R.move rt (R.slot 3) (R.to_slot 1);
      len := !len * 2
    done;
    (R.word rt (R.slot 0), R.word rt (R.slot 1))
  in
  let sim_fft ~inverse =
    R.call2 rt ~key:k_fft (R.slot 0) (R.slot 1) fft_stages inverse
  in
  let p = coefficients ~seed:0xFF1 (n / 2) in
  let q = coefficients ~seed:0xFF2 (n / 2) in
  let expected = native_multiply p q n in
  R.call0 rt ~key:k_main (fun () ->
    (* a small boxed descriptor, so the benchmark has a record site too *)
    R.alloc_record2 rt ~site:s_box ~mask:0 ~dst:(R.to_slot 4)
      (R.imm n) (R.imm bits);
    R.alloc_nonptr_array rt ~site:s_buf ~dst:(R.to_slot 0) ~len:n;
    R.alloc_nonptr_array rt ~site:s_buf ~dst:(R.to_slot 1) ~len:n;
    Array.iteri (fun i c -> put 0 i (c lsl fraction_bits)) p;
    Array.iteri (fun i c -> put 1 i (c lsl fraction_bits)) q;
    let fre, fim = sim_fft ~inverse:false in
    R.set rt (R.to_slot 0) fre;
    R.set rt (R.to_slot 1) fim;
    (* unpack the two packed transforms and multiply pointwise *)
    R.alloc_nonptr_array rt ~site:s_buf ~dst:(R.to_slot 2) ~len:n;
    R.alloc_nonptr_array rt ~site:s_buf ~dst:(R.to_slot 3) ~len:n;
    for k = 0 to n - 1 do
      let k' = (n - k) mod n in
      let ar = (get 0 k + get 0 k') / 2 in
      let ai = (get 1 k - get 1 k') / 2 in
      let br = (get 1 k + get 1 k') / 2 in
      let bi = (get 0 k' - get 0 k) / 2 in
      put 2 k (fix_mul ar br - fix_mul ai bi);
      put 3 k (fix_mul ar bi + fix_mul ai br)
    done;
    R.move rt (R.slot 2) (R.to_slot 0);
    R.move rt (R.slot 3) (R.to_slot 1);
    let rre, _rim = sim_fft ~inverse:true in
    R.set rt (R.to_slot 0) rre;
    for i = 0 to n - 1 do
      let c = (get 0 i / n + (fix_one / 2)) asr fraction_bits in
      if c <> expected.(i) then
        failwith
          (Printf.sprintf "fft: coefficient %d is %d, want %d" i c expected.(i))
    done)
    ()

let workload =
  { Spec.name = "fft";
    description =
      "Fast Fourier transform multiplying polynomials (16.16 fixed point, \
       large non-pointer arrays)";
    paper_lines = 246;
    default_scale = 11;
    (* 2^18 points is the largest transform checked *)
    scale_range = (1, 18);
    run }
