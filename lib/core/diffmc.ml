open Mcml_logic
open Mcml_counting

type counts = {
  tt : Bignat.t;
  tf : Bignat.t;
  ft : Bignat.t;
  ff : Bignat.t;
  time : float;
}

let counts ?budget ?pool ?cache ~backend ~nprimary d1 d2 =
  let side tree label = Tree2cnf.cnf_of_label ~nfeatures:nprimary tree ~label in
  let start = Mcml_obs.Obs.monotonic_s () in
  let open Mcml_obs in
  let sp = if Obs.enabled () then Some (Obs.start "diffmc.counts") else None in
  let one l1 l2 () =
    let problem = Cnf.conjoin ~nshared:nprimary (side d1 l1) (side d2 l2) in
    Option.map (fun o -> o.Counter.count) (Counter.count ?budget ?cache ~backend problem)
  in
  let result =
    Option.map
      (function
        | [ tt; tf; ft; ff ] -> { tt; tf; ft; ff; time = Mcml_obs.Obs.monotonic_s () -. start }
        | _ -> assert false)
      (Mcml_exec.Pool.all_some ?pool
         [ one true true; one true false; one false true; one false false ])
  in
  (match sp with
  | None -> ()
  | Some sp ->
      Obs.add "diffmc.evaluations" 1;
      Obs.finish sp
        ~attrs:
          [
            ("backend", Obs.Str (Counter.name backend));
            ("nprimary", Obs.Int nprimary);
            ("outcome", Obs.Str (if Option.is_none result then "timeout" else "complete"));
          ]);
  result

let diff c ~nprimary =
  (Bignat.to_float c.tf +. Bignat.to_float c.ft) /. Bignat.to_float (Bignat.pow2 nprimary)

let sim c ~nprimary = 1.0 -. diff c ~nprimary

let check_total c ~nprimary =
  let total = List.fold_left Bignat.add Bignat.zero [ c.tt; c.tf; c.ft; c.ff ] in
  Bignat.equal total (Bignat.pow2 nprimary)
