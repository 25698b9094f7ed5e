type confusion = { tp : float; fp : float; tn : float; fn : float }

let zero = { tp = 0.0; fp = 0.0; tn = 0.0; fn = 0.0 }

let add a b =
  { tp = a.tp +. b.tp; fp = a.fp +. b.fp; tn = a.tn +. b.tn; fn = a.fn +. b.fn }

let of_predictions ~predicted ~actual =
  if Array.length predicted <> Array.length actual then
    invalid_arg "Metrics.of_predictions: length mismatch";
  let tp = ref 0 and fp = ref 0 and tn = ref 0 and fn = ref 0 in
  for i = 0 to Array.length predicted - 1 do
    match (predicted.(i), actual.(i)) with
    | true, true -> incr tp
    | true, false -> incr fp
    | false, false -> incr tn
    | false, true -> incr fn
  done;
  { tp = float_of_int !tp; fp = float_of_int !fp; tn = float_of_int !tn; fn = float_of_int !fn }

let safe_div num den = if den = 0.0 then 0.0 else num /. den

let accuracy c = safe_div (c.tp +. c.tn) (c.tp +. c.fp +. c.tn +. c.fn)
let precision c = safe_div c.tp (c.tp +. c.fp)
let recall c = safe_div c.tp (c.tp +. c.fn)

let f1 c =
  let p = precision c and r = recall c in
  if p +. r = 0.0 then 0.0 else 2.0 *. p *. r /. (p +. r)

let pp fmt c =
  Format.fprintf fmt "tp=%.0f fp=%.0f tn=%.0f fn=%.0f acc=%.4f prec=%.4f rec=%.4f f1=%.4f"
    c.tp c.fp c.tn c.fn (accuracy c) (precision c) (recall c) (f1 c)
