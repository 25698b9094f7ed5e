/* The MLP's arithmetic: one minibatch of training (forward, backward,
   Adam) and the forward pass that scores an input.

   Every float is the one the OCaml loops these replaced computed, in
   the same order: a hidden unit sums from its bias over the set inputs
   in ascending order, the logit is one sequential sum over the units,
   each gradient accumulates in batch order, and Adam keeps OCaml's
   left-to-right association.  lib/ml/dune builds this file with
   -O3 -ffp-contract=off: vectorising the element-wise loops is exact
   lane by lane, GCC does not reassociate a sequential float sum without
   -ffast-math, and no multiply-add is fused.  exp and pow come from the
   libm OCaml's own [exp] and [**] call.

   Both entry points take at most five arguments, so one symbol serves
   native code and bytecode.  They keep no static state: every buffer
   is an OCaml Float.Array owned by the caller, so two domains may train
   at once. */

#include <math.h>
#include <string.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

/* Float.Array.t is flat whatever the float-array configuration. */
#define Doubles(v) ((double *) (v))

/* The fields of [Mlp.trainer], in declaration order. */
enum { K, H, LR, THETA, M, V, GRAD, PRE, DH, OFFSETS, INDICES, LABELS, ORDER };

/* Float.max 0.0 x: x when it is positive or NaN, otherwise +0.0 (so
   -0.0 becomes +0.0). */
static inline double relu(double x)
{
  return (x > 0.0 || isnan(x)) ? x : 0.0;
}

static inline double sigmoid(double z)
{
  return 1.0 / (1.0 + exp(-z));
}

/* Units per block of the forward pass: a block's sums stay in registers
   across all the set inputs instead of going through [pre] per input. */
#define BLOCK 16

/* Loads the hidden pre-activations of one input into [pre] and returns
   the output logit.  [set] holds the input's set features as OCaml
   ints, ascending; the first layer is input-major, so each adds one
   contiguous slice. */
static double forward(const double *restrict theta, intnat k, intnat h,
                      const value *set, intnat nset, double *restrict pre)
{
  const double *b1 = theta + k * h, *w2 = b1 + h;
  intnat i = 0;
  for (; i + BLOCK <= h; i += BLOCK) {
    double acc[BLOCK];
    for (int u = 0; u < BLOCK; u++) acc[u] = b1[i + u];
    for (intnat j = 0; j < nset; j++) {
      const double *w = theta + Long_val(set[j]) * h + i;
      for (int u = 0; u < BLOCK; u++) acc[u] += w[u];
    }
    for (int u = 0; u < BLOCK; u++) pre[i + u] = acc[u];
  }
  for (; i < h; i++) {
    double acc = b1[i];
    for (intnat j = 0; j < nset; j++) acc += theta[Long_val(set[j]) * h + i];
    pre[i] = acc;
  }
  double out = w2[h];
  for (i = 0; i < h; i++) out += w2[i] * relu(pre[i]);
  return out;
}

/* Adds one sample's logistic-loss gradient to [g], given its forward
   pass in [pre] and [dout] = (p - y) / batch size.  An inactive unit
   adds dh = +0.0, which leaves an accumulator as it is: each starts at
   +0.0 and so is never -0.0.  dh is masked in a loop of its own: GCC
   does not vectorise a loop that multiplies under a condition. */
static void backward(const double *restrict theta, intnat k, intnat h,
                     const value *set, intnat nset, const double *restrict pre,
                     double dout, double *restrict dh, double *restrict g)
{
  const double *w2 = theta + k * h + h;
  double *gb1 = g + k * h, *gw2 = gb1 + h;
  gw2[h] += dout;
  for (intnat i = 0; i < h; i++) gw2[i] += dout * relu(pre[i]);
  for (intnat i = 0; i < h; i++) dh[i] = dout * w2[i];
  for (intnat i = 0; i < h; i++) {
    dh[i] = pre[i] > 0.0 ? dh[i] : 0.0;
    gb1[i] += dh[i];
  }
  for (intnat j = 0; j < nset; j++) {
    double *restrict gs = g + Long_val(set[j]) * h;
    for (intnat i = 0; i < h; i++) gs[i] += dh[i];
  }
}

/* Adam's step [step] (from 1) over the [n] parameters. */
static void adam(intnat n, double lr, intnat step, const double *restrict g,
                 double *restrict m, double *restrict v,
                 double *restrict theta)
{
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  double bc1 = 1.0 - pow(beta1, (double) step);
  double bc2 = 1.0 - pow(beta2, (double) step);
  for (intnat i = 0; i < n; i++) {
    m[i] = (beta1 * m[i]) + ((1.0 - beta1) * g[i]);
    v[i] = (beta2 * v[i]) + (((1.0 - beta2) * g[i]) * g[i]);
    double mhat = m[i] / bc1, vhat = v[i] / bc2;
    theta[i] = theta[i] - ((lr * mhat) / (sqrt(vhat) + eps));
  }
}

/* One minibatch: the samples order.(start) .. order.(stop - 1), then
   Adam's step [step].  Allocates nothing, raises nothing. */
value mcml_mlp_minibatch(value tr, value start_v, value stop_v, value step_v)
{
  intnat k = Long_val(Field(tr, K)), h = Long_val(Field(tr, H));
  intnat start = Long_val(start_v), stop = Long_val(stop_v);
  double *theta = Doubles(Field(tr, THETA)), *g = Doubles(Field(tr, GRAD));
  double *pre = Doubles(Field(tr, PRE)), *dh = Doubles(Field(tr, DH));
  value offsets = Field(tr, OFFSETS), indices = Field(tr, INDICES);
  value labels = Field(tr, LABELS), order = Field(tr, ORDER);
  intnat n = k * h + h + h + 1;
  double bsize = (double) (stop - start);
  memset(g, 0, n * sizeof(double));
  for (intnat s = start; s < stop; s++) {
    intnat x = Long_val(Field(order, s));
    intnat lo = Long_val(Field(offsets, x));
    intnat nset = Long_val(Field(offsets, x + 1)) - lo;
    const value *set = Op_val(indices) + lo;
    double y = Bool_val(Field(labels, x)) ? 1.0 : 0.0;
    double p = sigmoid(forward(theta, k, h, set, nset, pre));
    backward(theta, k, h, set, nset, pre, (p - y) / bsize, dh, g);
  }
  adam(n, Double_val(Field(tr, LR)), Long_val(step_v), g,
       Doubles(Field(tr, M)), Doubles(Field(tr, V)), theta);
  return Val_unit;
}

/* The probability of an input given as its set features [set]
   (ascending); [pre] is the caller's scratch of [h] floats. */
value mcml_mlp_probability(value theta, value k, value set, value pre)
{
  intnat h = Wosize_val(pre) / Double_wosize;
  double p = sigmoid(forward(Doubles(theta), Long_val(k), h, Op_val(set),
                             Wosize_val(set), Doubles(pre)));
  return caml_copy_double(p);
}
