(* The reference kernel: a fixed piece of work whose processor time
   tells how fast the host ran during a run.

   Least-of-repetitions (Ledger.best) removes the slow spells of a few
   seconds, but some spells last longer than a whole run: in one set,
   three seeds in a row ran every table of both passes 10 to 15% slower
   than the rest, while one seed repeated five times varied by 3%.  So
   each run also probes this kernel between stretches of measured work,
   and reports processor time in reference seconds: scaled by
   [nominal_s] over the median probe of the run.  The kernel lives here,
   outside the program, so no change to the program moves it; it does
   not allocate, so the program's heap does not move it either, and a
   load on the other core left it within 2%. *)

(* 1 MiB of ints per core: beyond the first-level cache, well inside
   the second, like the program's hot working set.  A 256 KiB kernel
   missed slow spells that this one saw.  Outside the OCaml heap, so
   that it does not grow the heap the program's collector paces itself
   by: on the heap it added 6 to 10 MB to the runner's peak memory. *)
let size = 1 lsl 17

let arrays =
  Array.init 2 (fun _ ->
      lazy
        (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout size in
         Bigarray.Array1.fill a 0;
         a))

(* Pseudo-random reads and writes over [data], each load depending on
   the last. *)
let kernel (data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = (!x lxor !acc) land (size - 1) in
    let v = data.{i} in
    data.{i} <- v + 1;
    acc := !acc + v + i
  done;
  !acc

(* The kernel's processor time on a quiet reference host, by
   definition; the host this benchmark was written on took 1.68 to
   1.75 ms in quiet spells. *)
let nominal_s = 1.7e-3

let probes = ref []

external thread_cpu : unit -> float = "perfbench_thread_cpu"

(* The median of nine timed runs of the kernel, which drops the one a
   timer interrupt landed in. *)
let time_kernel data =
  let times =
    List.init 9 (fun _ ->
        let c = thread_cpu () in
        ignore (Sys.opaque_identity (kernel data));
        thread_cpu () -. c)
  in
  List.nth (List.sort compare times) 4

(* Times the kernel now, on this thread's core. *)
let probe () = probes := time_kernel (Lazy.force arrays.(0)) :: !probes

(* Times the kernel now on both cores at once: for a server, whose
   threads run on either. *)
let probe_both () =
  let other = Domain.spawn (fun () -> time_kernel (Lazy.force arrays.(1))) in
  let here = time_kernel (Lazy.force arrays.(0)) in
  probes := here :: Domain.join other :: !probes

(* The median probe of this run so far, seconds. *)
let median_s () = Ledger.median !probes

(* [cpu] processor seconds of this run, in reference seconds. *)
let to_ref cpu = cpu *. nominal_s /. median_s ()
