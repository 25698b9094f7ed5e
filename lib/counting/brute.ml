open Mcml_logic
open Mcml_sat

let count_core (cnf : Cnf.t) : Bignat.t =
  let proj = Cnf.projection_vars cnf in
  let k = Array.length proj in
  if k > 24 then invalid_arg "Brute.count: projection set too large";
  (* one solver decides every assignment of the projection variables,
     passed as assumptions; learnt clauses carry over between them *)
  let s = Solver.of_cnf cnf in
  let total = ref 0 in
  for mask = 0 to (1 lsl k) - 1 do
    let assumptions =
      List.init k (fun i -> Lit.make proj.(i) (mask land (1 lsl i) <> 0))
    in
    if Solver.solve ~assumptions s = Solver.Sat then incr total
  done;
  Bignat.of_int !total

let count (cnf : Cnf.t) : Bignat.t =
  if not (Mcml_obs.Obs.enabled ()) then count_core cnf
  else begin
    let open Mcml_obs in
    let sp = Obs.start "count.brute" in
    let r = count_core cnf in
    Obs.add "count.brute.calls" 1;
    Obs.finish sp
      ~attrs:
        [
          ("proj_vars", Obs.Int (Array.length (Cnf.projection_vars cnf)));
          ("count", Obs.Str (Bignat.to_string r));
        ];
    r
  end
