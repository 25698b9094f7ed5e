open Mcml_logic
open Mcml_ml

let threshold (lits : Formula.t list) (t : int) : Formula.t =
  let k = List.length lits in
  if t <= 0 then Formula.tru
  else if t > k then Formula.fls
  else begin
    let a = Array.of_list lits in
    (* dp.(j) = "at least j of the first i literals", rolled over i *)
    let dp = Array.make (t + 1) Formula.fls in
    dp.(0) <- Formula.tru;
    for i = 0 to k - 1 do
      (* update from high j to low so dp.(j-1) is still the i-1 row *)
      for j = min t (i + 1) downto 1 do
        dp.(j) <- Formula.or_ [ dp.(j); Formula.and_ [ a.(i); dp.(j - 1) ] ]
      done
    done;
    dp.(t)
  end

(* Σ_i w_i·x'_i + b >= 0 over ±1 inputs, where T literals (w_i x'_i = +1)
   are true, is 2T - k + b >= 0, i.e. T >= ceil((k - b) / 2). *)
let threshold_of_bias ~fan_in ~bias =
  let num = fan_in - bias in
  if num <= 0 then 0 else (num + 1) / 2

let formula_of (bnn : Bnn.t) : Formula.t =
  let k = Bnn.num_inputs bnn and m = Bnn.num_hidden bnn in
  let hidden =
    List.init m (fun j ->
        let lits =
          List.init k (fun i ->
              let v = Formula.var (i + 1) in
              if bnn.Bnn.w1.(j).(i) > 0 then v else Formula.not_ v)
        in
        threshold lits (threshold_of_bias ~fan_in:k ~bias:bnn.Bnn.b1.(j)))
  in
  let out_lits =
    List.mapi
      (fun j g -> if bnn.Bnn.w2.(j) > 0 then g else Formula.not_ g)
      hidden
  in
  threshold out_lits (threshold_of_bias ~fan_in:m ~bias:bnn.Bnn.b2)

let cnf_of_label ~nfeatures (bnn : Bnn.t) ~label : Cnf.t =
  if Bnn.num_inputs bnn > nfeatures then
    invalid_arg "Bnn2cnf.cnf_of_label: BNN has more inputs than nfeatures";
  let f = formula_of bnn in
  let f = if label then f else Formula.not_ f in
  Tseitin.cnf_of ~nprimary:nfeatures f

let accmc ?budget ~backend ~phi ~not_phi ~space ~nprimary (bnn : Bnn.t) =
  Accmc.counts_sides ?budget ~backend ~phi ~not_phi ~space ~nprimary
    ( cnf_of_label ~nfeatures:nprimary bnn ~label:true,
      cnf_of_label ~nfeatures:nprimary bnn ~label:false )
