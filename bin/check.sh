#!/bin/sh
# Repo health check: build, full test suite, then CLI smoke runs
# (including the telemetry layer end-to-end: every JSONL trace line
# must validate against the schema, the reconstructed span forest of a
# --jobs 4 run must match the --jobs 1 shape, and a fresh bench run
# must pass the regression gate against the committed baseline).
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== GC stress: test_ml with a minor collection every 4k words =="
# the MLP kernel (lib/ml/mlp_stubs.c) runs as a [@@noalloc] C stub: one
# that allocated, raised or held a heap pointer across a collection
# would fail or crash here, where a collection comes every few calls
OCAMLRUNPARAM=s=4k _build/default/test/test_ml.exe >/dev/null || {
  echo "FAIL: test_ml under OCAMLRUNPARAM=s=4k" >&2
  exit 1
}

echo "== smoke: mcml list =="
dune exec bin/main.exe -- list >/dev/null

echo "== smoke: mcml exp rejects a table outside 1-9 =="
st=0
out="$(dune exec bin/main.exe -- exp 10 2>/dev/null)" || st=$?
[ "$st" -eq 2 ] && [ -z "$out" ] || {
  echo "FAIL: mcml exp 10 exited $st (want 2) and printed '$out'" >&2
  exit 1
}

echo "== counter cross-check gate: exact (d-DNNF) vs brute on a fixed slice =="
# the two backends share no code above the CNF, so agreement on every
# property at scope 3 — plain and negated+symmetry-broken — pins the
# compiled engine to the enumeration semantics, bit for bit
MCML=_build/default/bin/main.exe
for p in Antisymmetric Bijective Connex Equivalence Function Functional \
  Injective Irreflexive NonStrictOrder PartialOrder PreOrder Reflexive \
  StrictOrder Surjective TotalOrder Transitive; do
  for flags in "" "--negate --symmetry"; do
    # shellcheck disable=SC2086
    e="$("$MCML" count -p "$p" -s 3 --backend exact $flags \
      | sed -n 's/^count = \([0-9]*\) .*/\1/p')"
    # shellcheck disable=SC2086
    b="$("$MCML" count -p "$p" -s 3 --backend brute $flags \
      | sed -n 's/^count = \([0-9]*\) .*/\1/p')"
    [ -n "$e" ] && [ "$e" = "$b" ] || {
      echo "FAIL: exact='$e' brute='$b' for $p scope 3 $flags" >&2
      exit 1
    }
  done
done
echo "   32/32 exact counts identical to brute enumeration"

echo "== AccMC/DiffMC cross-check gate: conditioned exact vs brute Tree2CNF =="
# exact AccMC conditions one compiled ground truth on the tree's paths
# and exact DiffMC sums path pairs with no counter; brute force counts
# the paper's Tree2CNF conjunctions one by one.  The trees are the same
# (same seed), so every property at scope 3, plain and symmetry-broken,
# must print the same four counts.  Unrestricted Surjective has too few
# negatives to balance its dataset: bad input, exit 2.
for p in Antisymmetric Bijective Connex Equivalence Function Functional \
  Injective Irreflexive NonStrictOrder PartialOrder PreOrder Reflexive \
  StrictOrder Surjective TotalOrder Transitive; do
  for flags in "" "--symmetry"; do
    [ "$p" = Surjective ] && [ -z "$flags" ] && continue
    for cmd in train-eval diff; do
      # shellcheck disable=SC2086
      e="$("$MCML" $cmd -p "$p" -s 3 --backend exact $flags \
        | sed -n 's/.*\(tp=[0-9]* fp=[0-9]* tn=[0-9]* fn=[0-9]*\).*/\1/p; s/^\(TT=[0-9]* TF=[0-9]* FT=[0-9]* FF=[0-9]*\) .*/\1/p')"
      # shellcheck disable=SC2086
      b="$("$MCML" $cmd -p "$p" -s 3 --backend brute $flags \
        | sed -n 's/.*\(tp=[0-9]* fp=[0-9]* tn=[0-9]* fn=[0-9]*\).*/\1/p; s/^\(TT=[0-9]* TF=[0-9]* FT=[0-9]* FF=[0-9]*\) .*/\1/p')"
      [ -n "$e" ] && [ "$e" = "$b" ] || {
        echo "FAIL: $cmd exact='$e' brute='$b' for $p scope 3 $flags" >&2
        exit 1
      }
    done
  done
done
for cmd in train-eval diff; do
  st=0
  err="$("$MCML" $cmd -p Surjective -s 3 2>&1 >/dev/null)" || st=$?
  [ "$st" -eq 2 ] && ! echo "$err" | grep -q "internal error" || {
    echo "FAIL: unbalanceable $cmd exited $st: $err" >&2
    exit 1
  }
done
echo "   31/31 AccMC and 31/31 DiffMC counts identical to brute Tree2CNF counts;"
echo "   unbalanceable data exits 2"

echo "== enumeration gate: solutions listed == exact count =="
# positives come from walking the compiled trace, so the number of
# solutions mcml enumerate lists must equal the count of the same CNF,
# on every property at scope 4, with and without symmetry breaking
for p in Antisymmetric Bijective Connex Equivalence Function Functional \
  Injective Irreflexive NonStrictOrder PartialOrder PreOrder Reflexive \
  StrictOrder Surjective TotalOrder Transitive; do
  for flags in "" "--symmetry"; do
    # shellcheck disable=SC2086
    n="$("$MCML" enumerate -p "$p" -s 4 --limit 1000000 $flags \
      | tail -n 1 | sed -n 's/^\([0-9]*\) solution(s)$/\1/p')"
    # shellcheck disable=SC2086
    c="$("$MCML" count -p "$p" -s 4 --backend exact $flags \
      | sed -n 's/^count = \([0-9]*\) .*/\1/p')"
    [ -n "$n" ] && [ "$n" = "$c" ] || {
      echo "FAIL: enumerate listed '$n', exact count '$c' for $p scope 4 $flags" >&2
      exit 1
    }
  done
done
echo "   32/32 enumerations list exactly the exact count"

echo "== smoke: mcml stats --trace =="
trace="$(mktemp /tmp/mcml_trace.XXXXXX.jsonl)"
live="$(mktemp /tmp/mcml_live.XXXXXX.txt)"
dune exec bin/main.exe -- stats -p Reflexive -s 3 --trace "$trace" >"$live"
[ -s "$trace" ] || {
  echo "FAIL: --trace wrote no events" >&2
  exit 1
}
grep -q '"kind":"span_end"' "$trace" || {
  echo "FAIL: trace has no span_end events" >&2
  exit 1
}

echo "== trace schema validation (stats --from-trace) =="
# every line must parse as a known schema-v3 event, every span must be
# balanced, every parent id must resolve: --from-trace enforces all of
# it, and then prints the report the live run printed after its three
# result lines, byte for byte
replay="$(mktemp /tmp/mcml_replay.XXXXXX.txt)"
dune exec bin/main.exe -- stats --from-trace "$trace" >"$replay" || {
  echo "FAIL: the smoke trace did not validate" >&2
  exit 1
}
if ! tail -n +4 "$live" | diff - "$replay"; then
  echo "FAIL: the live stats report differs from its trace's replay" >&2
  exit 1
fi
rm -f "$live" "$replay"
# negative: an unknown event kind must be rejected (schema drift gate)
bad="$(mktemp /tmp/mcml_trace_bad.XXXXXX.jsonl)"
cp "$trace" "$bad"
echo '{"ts":1.0,"kind":"mystery","name":"x"}' >>"$bad"
if dune exec bin/main.exe -- stats --from-trace "$bad" >/dev/null 2>&1; then
  echo "FAIL: a trace with an unknown event kind validated" >&2
  exit 1
fi
# negative: a dangling parent id must be rejected
cp "$trace" "$bad"
{
  echo '{"ts":1.0,"kind":"span_start","name":"x","id":999999,"parent":888888,"domain":0,"pid":1}'
  echo '{"ts":1.1,"kind":"span_end","name":"x","id":999999,"parent":888888,"domain":0,"pid":1,"dur_ms":0.1}'
} >>"$bad"
if dune exec bin/main.exe -- stats --from-trace "$bad" >/dev/null 2>&1; then
  echo "FAIL: a trace with a dangling parent id validated" >&2
  exit 1
fi
# negative: a schema-v2 line (no pid) must be rejected, naming the field
cp "$trace" "$bad"
echo '{"ts":1.0,"kind":"span_start","name":"x","id":999999,"domain":0}' >>"$bad"
st=0; err="$(dune exec bin/main.exe -- stats --from-trace "$bad" 2>&1 >/dev/null)" || st=$?
[ "$st" -eq 1 ] && echo "$err" | grep -q 'missing field "pid"' \
  || { echo "FAIL: a v2 trace line exited $st: $err" >&2; exit 1; }
# the replay-only views need a trace, and exclude each other: usage errors
for flags in "--shape -p Reflexive -s 3" "--from-trace $trace --top 3 --folded"; do
  st=0
  # shellcheck disable=SC2086
  dune exec bin/main.exe -- stats $flags >/dev/null 2>&1 || st=$?
  [ "$st" -eq 2 ] || { echo "FAIL: stats $flags exited $st (want 2)" >&2; exit 1; }
done
echo "== smoke: mcml stats --from-trace --folded =="
# folded stacks for flamegraph.pl/speedscope: "path value" per line,
# integer microseconds
folded="$(mktemp /tmp/mcml_folded.XXXXXX.txt)"
dune exec bin/main.exe -- stats --from-trace "$trace" --folded >"$folded"
[ -s "$folded" ] || {
  echo "FAIL: stats --folded printed no folded stacks" >&2
  exit 1
}
if grep -q -v '^[^ ][^ ]* [0-9][0-9]*$' "$folded"; then
  echo "FAIL: malformed folded stack lines:" >&2
  grep -v '^[^ ][^ ]* [0-9][0-9]*$' "$folded" >&2
  exit 1
fi
rm -f "$folded" "$trace" "$bad"

echo "== span forest shape: --jobs 4 must equal --jobs 1 =="
# --no-count-cache: at jobs>1 two identical in-flight queries can both
# miss the cache and spawn extra count spans, which is legitimate but
# makes the forest shape nondeterministic; the shape contract is
# cache-free.  Tables 3 and 9 add exact AccMC, whose per-process memo
# of compiled forms must compile each universe and ground truth once
# however rows interleave.  Table 9's seven class ratios are parallel
# pool tasks that all query one (Antisymmetric, scope, full space)
# ground truth: under its seven accmc.counts spans, two count.exact
# compiles run at either setting, the ground truth and the universe.
t1="$(mktemp /tmp/mcml_shape_j1.XXXXXX.jsonl)"
t4="$(mktemp /tmp/mcml_shape_j4.XXXXXX.jsonl)"
for table in 1 3 9; do
  dune exec bin/main.exe -- exp "$table" --jobs 1 --no-count-cache --budget 20 --trace "$t1" >/dev/null
  dune exec bin/main.exe -- exp "$table" --jobs 4 --no-count-cache --budget 20 --trace "$t4" >/dev/null
  dune exec bin/main.exe -- stats --from-trace "$t1" --shape >"$t1.shape"
  dune exec bin/main.exe -- stats --from-trace "$t4" --shape >"$t4.shape"
  if ! diff "$t1.shape" "$t4.shape"; then
    echo "FAIL: table $table span forest shape differs between --jobs 1 and --jobs 4" >&2
    exit 1
  fi
  if [ "$table" = 9 ]; then
    for shape in "$t1.shape" "$t4.shape"; do
      # the count.exact row among accmc.counts x7's direct children
      # (alloy.translate, for the ground truth, sorts before it)
      compiles="$(awk '
        /^ *accmc\.counts x7$/ { ind = index($0, "a"); inside = 1; next }
        inside {
          at = match($0, /[^ ]/)
          if (at <= ind) { inside = 0; next }
          if (at == ind + 2 && $1 == "count.exact") print
        }' "$shape")"
      if [ "$(echo $compiles)" != "count.exact x2" ]; then
        echo "FAIL: table 9's seven AccMC queries must compile their ground truth and universe once each; $shape has:" >&2
        cat "$shape" >&2
        exit 1
      fi
    done
  fi
done
rm -f "$t1" "$t4" "$t1.shape" "$t4.shape"

echo "== smoke: parallel driver (jobs=1 vs jobs=4 must print identical tables) =="
# Table 1 fans its properties out over the pool; Tables 2 and 4 train
# all six models once per class ratio, the ratios in parallel at
# --jobs 4: a learner's scratch buffer shared between domains would
# race and change a row.
j1_out="$(mktemp /tmp/mcml_exp_j1.XXXXXX.txt)"
j4_out="$(mktemp /tmp/mcml_exp_j4.XXXXXX.txt)"
for table in 1 2 4; do
  dune exec bin/main.exe -- exp "$table" --jobs 1 >"$j1_out"
  dune exec bin/main.exe -- exp "$table" --jobs 4 >"$j4_out"
  if ! diff "$j1_out" "$j4_out"; then
    echo "FAIL: table $table output differs between --jobs 1 and --jobs 4" >&2
    exit 1
  fi
done
rm -f "$j1_out" "$j4_out"

echo "== bench regression gate vs committed baseline =="
# same settings the committed BENCH_baseline.json was generated with:
# --tables, default budget
fresh="$(mktemp /tmp/mcml_bench_fresh.XXXXXX.json)"
gate_log="$(mktemp /tmp/mcml_gate.XXXXXX.txt)"
if ! dune exec bench/main.exe -- --tables --json "$fresh" \
  --baseline BENCH_baseline.json --gate 2.0 >"$gate_log"; then
  echo "FAIL: bench regression gate" >&2
  sed -n '/regression gate/,$p' "$gate_log" >&2
  exit 1
fi
sed -n '/regression gate/,$p' "$gate_log"
rm -f "$fresh" "$gate_log"

echo "== bench serve.fleet gate: fleet throughput recorded and gated =="
# same settings the committed serve.fleet baseline section was
# generated with: --shards 4 --budget 5.  The sub-second section gets
# a looser factor than the tables (scheduler noise dominates at that
# scale); the speedup itself is recorded, not gated — this host may
# have a single core.
fleet_json="$(mktemp /tmp/mcml_fleet_bench.XXXXXX.json)"
fleet_gate_log="$(mktemp /tmp/mcml_fleet_gate.XXXXXX.txt)"
if ! dune exec bench/main.exe -- --serve --fleet --shards 4 --budget 5 \
  --json "$fleet_json" --baseline BENCH_baseline.json --gate 3.0 >"$fleet_gate_log"; then
  echo "FAIL: serve.fleet bench gate" >&2
  sed -n '/regression gate/,$p' "$fleet_gate_log" >&2
  exit 1
fi
sed -n '/regression gate/,$p' "$fleet_gate_log"
for field in '"mode":"fleet"' '"shards":4' '"speedup":' '"throughput_rps":'; do
  grep -q "$field" "$fleet_json" || {
    echo "FAIL: $field missing from serve.fleet JSON" >&2
    exit 1
  }
done
rm -f "$fleet_json" "$fleet_gate_log"

# long_line_gate SOCKET: a 4 MiB newline-free line, then a health
# request on the same connection, must come back as exactly one
# bad_request (null id) and then ok; a further health request on a new
# connection must still be answered.  The reader caps a line at 1 MiB
# and drops the rest of it, so this also stays fast and small.
long_line_gate() {
  ll_out="$(mktemp /tmp/mcml_longline.XXXXXX.jsonl)"
  { head -c 4194304 /dev/zero | tr '\0' x; echo
    echo '{"id":"h1","kind":"health"}'
  } | "$MCML" client --socket "$1" >"$ll_out" || {
    echo "FAIL: long-line client exited nonzero on $1" >&2
    exit 1
  }
  echo '{"id":"h2","kind":"health"}' | "$MCML" client --socket "$1" >>"$ll_out" || {
    echo "FAIL: health after the long line failed on $1" >&2
    exit 1
  }
  [ "$(wc -l <"$ll_out")" -eq 3 ] \
    && sed -n 1p "$ll_out" | grep -q '^{"id":null,"ok":false,"code":"bad_request","error":"line longer than 1048576 bytes"}$' \
    && sed -n 2p "$ll_out" | grep -q '^{"id":"h1","ok":true,' \
    && sed -n 3p "$ll_out" | grep -q '^{"id":"h2","ok":true,' || {
    echo "FAIL: long line on $1 was not answered bad_request, ok, ok:" >&2
    cut -c 1-200 "$ll_out" >&2
    exit 1
  }
  rm -f "$ll_out"
}

echo "== serve smoke gate: concurrent served answers == direct CLI =="
# start the daemon at --jobs 4 with a trace, fire 20 concurrent mixed
# requests from two clients, require every count byte-identical to the
# direct CLI answer, then SIGTERM and require a clean drain and a
# schema-valid trace.  The binary is already built; run it directly so
# concurrent invocations don't contend on the dune lock.
MCML=_build/default/bin/main.exe
sock="/tmp/mcml_serve.$$.sock"
strace="$(mktemp /tmp/mcml_serve.XXXXXX.jsonl)"
"$MCML" serve --socket "$sock" --jobs 4 --trace "$strace" 2>/dev/null &
serve_pid=$!
i=0
while [ ! -S "$sock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$sock" ] || { echo "FAIL: serve socket never appeared" >&2; exit 1; }

serve_props="Reflexive Irreflexive Antisymmetric Transitive PartialOrder"
direct="$(mktemp /tmp/mcml_direct.XXXXXX.txt)"
for p in $serve_props; do
  for s in 3 4; do
    v="$("$MCML" count -p "$p" -s "$s" | sed -n 's/^count = \([0-9]*\) .*/\1/p')"
    [ -n "$v" ] || { echo "FAIL: no direct CLI count for $p scope $s" >&2; exit 1; }
    echo "$p $s $v" >>"$direct"
  done
done

# serve_reqs TAG [FIELDS]: the 10 count requests, ids prefixed with
# TAG, each with the extra JSON FIELDS (e.g. ',"deadline_ms":60000')
serve_reqs() {
  for p in $serve_props; do
    for s in 3 4; do
      echo "{\"id\":\"$1-$p-$s\",\"kind\":\"count\",\"prop\":\"$p\",\"scope\":$s${2:-}}"
    done
  done
}
# same_as_direct WHAT FILE...: every count in each FILE equals the
# direct CLI answer for its property and scope
same_as_direct() {
  what="$1"
  shift
  while read -r p s want; do
    for f in "$@"; do
      got="$(grep "\"prop\":\"$p\"" "$f" | grep "\"scope\":$s," \
        | sed -n 's/.*"count":"\([0-9]*\)".*/\1/p')"
      [ "$got" = "$want" ] || {
        echo "FAIL: $what count for $p scope $s = '$got', direct CLI = '$want'" >&2
        exit 1
      }
    done
  done <"$direct"
}
# the server's count-cache misses, from a stats request
cache_misses() {
  echo '{"id":"s","kind":"stats"}' | "$MCML" client --socket "$1" \
    | sed -n 's/.*"cache":{[^}]*"misses":\([0-9]*\).*/\1/p'
}
out1="$(mktemp /tmp/mcml_client1.XXXXXX.jsonl)"
out2="$(mktemp /tmp/mcml_client2.XXXXXX.jsonl)"
serve_reqs a | "$MCML" client --socket "$sock" >"$out1" &
c1=$!
serve_reqs b | "$MCML" client --socket "$sock" >"$out2" &
c2=$!
wait $c1 || { echo "FAIL: client 1 exited nonzero" >&2; exit 1; }
wait $c2 || { echo "FAIL: client 2 exited nonzero" >&2; exit 1; }
for f in "$out1" "$out2"; do
  [ "$(wc -l <"$f")" -eq 10 ] || { echo "FAIL: expected 10 responses in $f" >&2; exit 1; }
  if grep -q '"ok":false' "$f"; then
    echo "FAIL: serve returned an error response:" >&2
    grep '"ok":false' "$f" >&2
    exit 1
  fi
done
same_as_direct served "$out1" "$out2"

echo "== deadline gate: deadlined requests hit the count cache =="
# the same 10 queries with a deadline, which clamps each budget below
# the 60 s default: the count cache keys without the budget, so every
# answer must come from it — identical counts, no new miss
misses="$(cache_misses "$sock")"
[ -n "$misses" ] || { echo "FAIL: stats has no cache misses field" >&2; exit 1; }
serve_reqs d ',"deadline_ms":60000' | "$MCML" client --socket "$sock" >"$out1" || {
  echo "FAIL: deadline client exited nonzero" >&2
  exit 1
}
[ "$(wc -l <"$out1")" -eq 10 ] && ! grep -q '"ok":false' "$out1" || {
  echo "FAIL: expected 10 ok deadlined responses:" >&2
  cat "$out1" >&2
  exit 1
}
same_as_direct deadlined "$out1"
[ "$(cache_misses "$sock")" = "$misses" ] || {
  echo "FAIL: deadlined requests recounted (cache misses $misses -> $(cache_misses "$sock"))" >&2
  exit 1
}
echo "   10/10 deadlined answers from cache, identical to direct CLI"

echo "== metrics smoke gate: live scrape of the running server =="
# the deadline gate's requests made the SLO counter families exist;
# scrape the registry over the wire and require a well-formed
# exposition — no restart, no flush
metrics="$(mktemp /tmp/mcml_metrics.XXXXXX.txt)"
"$MCML" client --socket "$sock" metrics >"$metrics" || {
  echo "FAIL: metrics scrape failed" >&2
  exit 1
}
for family in \
  "# TYPE mcml_serve_requests_ok counter" \
  "# TYPE mcml_serve_slo_deadline_requests counter" \
  "# TYPE mcml_serve_slo_deadline_hit_ratio gauge" \
  "# TYPE mcml_gc_heap_words gauge" \
  "# TYPE mcml_proc_max_rss_bytes gauge" \
  "# TYPE mcml_exec_pool_queue_depth gauge" \
  "# TYPE mcml_serve_request histogram"; do
  grep -q "^$family\$" "$metrics" || {
    echo "FAIL: metrics exposition lacks '$family'" >&2
    cat "$metrics" >&2
    exit 1
  }
done
tail -1 "$metrics" | grep -q '^# EOF$' || {
  echo "FAIL: exposition does not end with # EOF" >&2
  exit 1
}
rm -f "$metrics"
echo "   exposition well-formed: SLO, GC, pool and latency families live"

echo "== long-line gate: serve rejects a 4 MiB line and keeps serving =="
long_line_gate "$sock"
echo "   bad_request, then ok on the same connection, then ok again"

kill -TERM $serve_pid
wait $serve_pid || { echo "FAIL: serve exited nonzero after SIGTERM" >&2; exit 1; }
[ ! -e "$sock" ] || { echo "FAIL: drained server left its socket behind" >&2; exit 1; }
grep -q '"name":"serve.request"' "$strace" || {
  echo "FAIL: server trace has no serve.request spans" >&2
  exit 1
}
"$MCML" stats --from-trace "$strace" >/dev/null || {
  echo "FAIL: the server trace did not validate" >&2
  exit 1
}
rm -f "$out1" "$out2" "$strace"
echo "   20/20 served answers identical to direct CLI; clean drain; valid trace"

echo "== fleet smoke gate: 3 shards, kill-recovery, disk-cache replay =="
# a 3-shard fleet with a persistent cache; 30 concurrent counts from 3
# clients while one shard is SIGKILLed mid-run: the supervisor must
# respawn it and every response must still be correct (the router
# retries the dead shard's requests until it returns).  Then a cold
# restart over the same cache directory must serve the same keys from
# disk: zero recounts.
fsock="/tmp/mcml_fleet.$$.sock"
fdir="$(mktemp -d /tmp/mcml_fleet.XXXXXX)"
"$MCML" fleet --shards 3 --socket "$fsock" \
  --cache-dir "$fdir/cache" --shard-dir "$fdir/shards" 2>/dev/null &
fleet_pid=$!
i=0
while [ ! -S "$fsock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$fsock" ] || { echo "FAIL: fleet socket never appeared" >&2; exit 1; }
shard_pid="$(pgrep -f "$fdir/shards/shard-1.sock" || true)"
[ -n "$shard_pid" ] || { echo "FAIL: shard 1 never came up" >&2; exit 1; }

fout1="$(mktemp /tmp/mcml_fleet1.XXXXXX.jsonl)"
fout2="$(mktemp /tmp/mcml_fleet2.XXXXXX.jsonl)"
fout3="$(mktemp /tmp/mcml_fleet3.XXXXXX.jsonl)"
serve_reqs f1 | "$MCML" client --socket "$fsock" >"$fout1" &
fc1=$!
serve_reqs f2 | "$MCML" client --socket "$fsock" >"$fout2" &
fc2=$!
kill -9 "$shard_pid"
serve_reqs f3 | "$MCML" client --socket "$fsock" >"$fout3" &
fc3=$!
wait $fc1 || { echo "FAIL: fleet client 1 exited nonzero" >&2; exit 1; }
wait $fc2 || { echo "FAIL: fleet client 2 exited nonzero" >&2; exit 1; }
wait $fc3 || { echo "FAIL: fleet client 3 exited nonzero" >&2; exit 1; }
for f in "$fout1" "$fout2" "$fout3"; do
  [ "$(wc -l <"$f")" -eq 10 ] || { echo "FAIL: expected 10 fleet responses in $f" >&2; exit 1; }
  if grep -q '"ok":false' "$f"; then
    echo "FAIL: fleet returned an error response (shard kill must be absorbed):" >&2
    grep '"ok":false' "$f" >&2
    exit 1
  fi
done
same_as_direct fleet "$fout1" "$fout2" "$fout3"
fhealth="$(mktemp /tmp/mcml_fleet_health.XXXXXX.json)"
echo '{"id":"h","kind":"health"}' | "$MCML" client --socket "$fsock" >"$fhealth"
grep -q '"restarts":[1-9]' "$fhealth" || {
  echo "FAIL: merged health does not report the shard respawn:" >&2
  cat "$fhealth" >&2
  exit 1
}

echo "== long-line gate: fleet rejects a 4 MiB line and keeps serving =="
long_line_gate "$fsock"
echo "   bad_request, then ok on the same connection, then ok again"
kill -TERM $fleet_pid
wait $fleet_pid || { echo "FAIL: fleet exited nonzero after SIGTERM" >&2; exit 1; }
[ ! -e "$fsock" ] || { echo "FAIL: drained fleet left its socket behind" >&2; exit 1; }

# cold restart: same cache directory, fresh shards — every key must be
# served from the disk cache without a single recount
"$MCML" fleet --shards 3 --socket "$fsock" \
  --cache-dir "$fdir/cache" --shard-dir "$fdir/shards" 2>/dev/null &
fleet_pid=$!
i=0
while [ ! -S "$fsock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$fsock" ] || { echo "FAIL: restarted fleet socket never appeared" >&2; exit 1; }
serve_reqs replay | "$MCML" client --socket "$fsock" >"$fout1" || {
  echo "FAIL: replay client exited nonzero" >&2
  exit 1
}
if grep -q '"ok":false' "$fout1"; then
  echo "FAIL: replay returned an error response" >&2
  exit 1
fi
same_as_direct replayed "$fout1"
fstats="$(mktemp /tmp/mcml_fleet_stats.XXXXXX.json)"
echo '{"id":"s","kind":"stats"}' | "$MCML" client --socket "$fsock" >"$fstats"
# the merged fleet-wide cache section precedes the per-shard list;
# strip the latter and require zero recounts
if ! sed 's/"shards":.*//' "$fstats" | grep -q '"misses":0'; then
  echo "FAIL: disk-cache replay recounted (merged cache misses != 0):" >&2
  cat "$fstats" >&2
  exit 1
fi
kill -TERM $fleet_pid
wait $fleet_pid || { echo "FAIL: restarted fleet exited nonzero after SIGTERM" >&2; exit 1; }
echo "   30/30 fleet answers identical to direct CLI across a shard kill;"
echo "   restart replayed every key from disk with zero recounts"

echo "== cache warm gate: a sharded warm answers the fleet at another budget =="
# 'cache warm --shards 3' places each of the 10 queries in the slice of
# the shard the router will send it to, here at a 20 s budget; a fresh
# 3-shard fleet over that directory is then asked at the default 60 s.
# The ring key has no budget, so every count must come from the warmed
# slices: identical to the direct CLI, zero merged misses.
wdir="$(mktemp -d /tmp/mcml_warm.XXXXXX)"
warm_args=""
for p in $serve_props; do warm_args="$warm_args -p $p"; done
# shellcheck disable=SC2086
"$MCML" cache warm --dir "$wdir/cache" $warm_args -s 3 -s 4 --shards 3 --budget 20 >/dev/null || {
  echo "FAIL: cache warm exited nonzero" >&2
  exit 1
}
"$MCML" fleet --shards 3 --socket "$fsock" \
  --cache-dir "$wdir/cache" --shard-dir "$wdir/shards" 2>/dev/null &
fleet_pid=$!
i=0
while [ ! -S "$fsock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$fsock" ] || { echo "FAIL: warmed fleet socket never appeared" >&2; exit 1; }
serve_reqs warm | "$MCML" client --socket "$fsock" >"$fout1" || {
  echo "FAIL: warmed fleet client exited nonzero" >&2
  exit 1
}
[ "$(wc -l <"$fout1")" -eq 10 ] && ! grep -q '"ok":false' "$fout1" || {
  echo "FAIL: expected 10 ok answers from the warmed fleet:" >&2
  cat "$fout1" >&2
  exit 1
}
same_as_direct warmed "$fout1"
echo '{"id":"s","kind":"stats"}' | "$MCML" client --socket "$fsock" >"$fstats"
if ! sed 's/"shards":.*//' "$fstats" | grep -q '"misses":0'; then
  echo "FAIL: the warmed fleet recounted (merged cache misses != 0):" >&2
  cat "$fstats" >&2
  exit 1
fi
kill -TERM $fleet_pid
wait $fleet_pid || { echo "FAIL: warmed fleet exited nonzero after SIGTERM" >&2; exit 1; }
rm -rf "$wdir" "$fdir" "$fout1" "$fout2" "$fout3" "$fhealth" "$fstats" "$direct"
echo "   10/10 warmed answers identical to direct CLI, zero recounts"

echo "== distributed-trace gate: one forest across the fleet =="
# a 3-shard fleet tracing every process into --trace-dir; 20 counts
# through the router, SIGUSR1 one shard (flight-recorder dump, shard
# must survive), a lint-checked fleet-wide metrics scrape whose
# shard-labeled ok-counters must sum to the unlabeled sample, then a
# clean drain and a merged-forest validation: stats --from-trace-dir
# must accept the directory and report cross-process parent edges
# (shard serve.request spans hanging under router spans).
tsock="/tmp/mcml_tfleet.$$.sock"
tdir="$(mktemp -d /tmp/mcml_tfleet.XXXXXX)"
"$MCML" fleet --shards 3 --socket "$tsock" \
  --shard-dir "$tdir/shards" --trace-dir "$tdir/traces" 2>/dev/null &
tfleet_pid=$!
i=0
while [ ! -S "$tsock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$tsock" ] || { echo "FAIL: traced fleet socket never appeared" >&2; exit 1; }

tout="$(mktemp /tmp/mcml_tfleet_out.XXXXXX.jsonl)"
{ serve_reqs t1; serve_reqs t2; } | "$MCML" client --socket "$tsock" \
  --retries 3 >"$tout" || {
  echo "FAIL: traced fleet client exited nonzero" >&2
  exit 1
}
[ "$(wc -l <"$tout")" -eq 20 ] || {
  echo "FAIL: expected 20 traced fleet responses" >&2
  exit 1
}
if grep -q '"ok":false' "$tout"; then
  echo "FAIL: traced fleet returned an error response" >&2
  grep '"ok":false' "$tout" >&2
  exit 1
fi

# flight recorder: SIGUSR1 must dump the in-memory ring without
# disturbing the shard
usr1_pid="$(pgrep -f "$tdir/shards/shard-1.sock" || true)"
[ -n "$usr1_pid" ] || { echo "FAIL: traced shard 1 never came up" >&2; exit 1; }
kill -USR1 "$usr1_pid"
i=0
while ! ls "$tdir"/traces/flight-shard-*.events >/dev/null 2>&1 && [ $i -lt 50 ]; do
  sleep 0.1
  i=$((i + 1))
done
fdump="$(ls "$tdir"/traces/flight-shard-*.events 2>/dev/null | head -1)"
[ -n "$fdump" ] && [ -s "$fdump" ] || {
  echo "FAIL: SIGUSR1 produced no flight-recorder dump" >&2
  exit 1
}
kill -0 "$usr1_pid" || { echo "FAIL: shard died on SIGUSR1" >&2; exit 1; }

# fleet-wide metrics: the scrape must pass the client's own lint
# (--check) and the shard-labeled ok-counters must sum to the
# unlabeled fleet-total sample
tmetrics="$(mktemp /tmp/mcml_tfleet_metrics.XXXXXX.txt)"
"$MCML" client --socket "$tsock" --retries 3 metrics --check >"$tmetrics" || {
  echo "FAIL: fleet metrics scrape failed (or failed lint)" >&2
  exit 1
}
grep -q 'shard="[0-9]' "$tmetrics" || {
  echo "FAIL: fleet exposition has no shard-labeled samples" >&2
  exit 1
}
grep -q 'mcml_fleet_shard_up{shard="2"} 1' "$tmetrics" || {
  echo "FAIL: fleet exposition lacks live shard_up gauges" >&2
  cat "$tmetrics" >&2
  exit 1
}
awk '
  /^mcml_serve_requests_ok_total\{shard="[0-9]+"\}/ { sum += $2 }
  /^mcml_serve_requests_ok_total [0-9]/ { total = $2 }
  END { exit (total > 0 && sum == total) ? 0 : 1 }
' "$tmetrics" || {
  echo "FAIL: shard-labeled ok-counters do not sum to the fleet total" >&2
  cat "$tmetrics" >&2
  exit 1
}

kill -TERM $tfleet_pid
wait $tfleet_pid || { echo "FAIL: traced fleet exited nonzero after SIGTERM" >&2; exit 1; }

# the merged forest: every process wrote a stream, the directory
# validates as one forest, and shard spans hang under router spans
# across the process boundary
[ "$(ls "$tdir"/traces/router-*.jsonl 2>/dev/null | wc -l)" -eq 1 ] || {
  echo "FAIL: router wrote no trace stream" >&2
  exit 1
}
[ "$(ls "$tdir"/traces/shard-*.jsonl 2>/dev/null | wc -l)" -eq 3 ] || {
  echo "FAIL: expected 3 shard trace streams" >&2
  exit 1
}
tstats="$(mktemp /tmp/mcml_tfleet_stats.XXXXXX.txt)"
"$MCML" stats --from-trace-dir "$tdir/traces" >"$tstats" || {
  echo "FAIL: the merged fleet trace did not validate" >&2
  exit 1
}
grep -q 'cross-process parent edges: [1-9]' "$tstats" || {
  echo "FAIL: merged forest has no cross-process parent edges:" >&2
  cat "$tstats" >&2
  exit 1
}
rm -rf "$tdir" "$tout" "$tmetrics" "$tstats"
echo "   20/20 traced answers; flight dump on SIGUSR1; lint-clean fleet"
echo "   exposition with consistent shard sums; one merged forest with"
echo "   cross-process parent edges"

echo "== docs: dune build @doc =="
# the container may lack odoc (it is not vendored and cannot be
# installed here); the doc gate runs wherever it is available
if command -v odoc >/dev/null 2>&1; then
  doc_log="$(mktemp /tmp/mcml_doc.XXXXXX.txt)"
  if ! dune build @doc >"$doc_log" 2>&1; then
    cat "$doc_log" >&2
    echo "FAIL: dune build @doc" >&2
    exit 1
  fi
  if grep -qi "warning" "$doc_log"; then
    cat "$doc_log" >&2
    echo "FAIL: odoc emitted warnings" >&2
    exit 1
  fi
  rm -f "$doc_log"
else
  echo "   (odoc not installed; skipping the doc build)"
fi

echo "OK"
