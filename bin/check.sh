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

echo "== smoke: mcml list =="
dune exec bin/main.exe -- list >/dev/null

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
out="$(dune exec bin/main.exe -- stats -p Reflexive -s 3 --trace "$trace")"
echo "$out" | grep -q "span tree" || {
  echo "FAIL: stats did not print a span tree" >&2
  exit 1
}
[ -s "$trace" ] || {
  echo "FAIL: --trace wrote no events" >&2
  exit 1
}
grep -q '"kind":"span_end"' "$trace" || {
  echo "FAIL: trace has no span_end events" >&2
  exit 1
}

echo "== trace schema validation (stats --from-trace) =="
# every line must parse as a known schema-v2 event, every span must be
# balanced, every parent id must resolve: --from-trace enforces all of it
dune exec bin/main.exe -- stats --from-trace "$trace" >/dev/null || {
  echo "FAIL: the smoke trace did not validate" >&2
  exit 1
}
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
  echo '{"ts":1.0,"kind":"span_start","name":"x","id":999999,"parent":888888,"domain":0}'
  echo '{"ts":1.1,"kind":"span_end","name":"x","id":999999,"parent":888888,"domain":0,"dur_ms":0.1}'
} >>"$bad"
if dune exec bin/main.exe -- stats --from-trace "$bad" >/dev/null 2>&1; then
  echo "FAIL: a trace with a dangling parent id validated" >&2
  exit 1
fi
echo "== smoke: mcml profile --from-trace =="
# folded stacks for flamegraph.pl/speedscope: "path value" per line,
# integer microseconds, plus a self-time table on the other stream
folded="$(mktemp /tmp/mcml_folded.XXXXXX.txt)"
dune exec bin/main.exe -- profile --from-trace "$trace" -o "$folded" >/dev/null
[ -s "$folded" ] || {
  echo "FAIL: profile wrote no folded stacks" >&2
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
# cache-free
t1="$(mktemp /tmp/mcml_shape_j1.XXXXXX.jsonl)"
t4="$(mktemp /tmp/mcml_shape_j4.XXXXXX.jsonl)"
dune exec bin/main.exe -- exp 1 --jobs 1 --no-count-cache --budget 20 --trace "$t1" >/dev/null
dune exec bin/main.exe -- exp 1 --jobs 4 --no-count-cache --budget 20 --trace "$t4" >/dev/null
dune exec bin/main.exe -- stats --from-trace "$t1" --shape >"$t1.shape"
dune exec bin/main.exe -- stats --from-trace "$t4" --shape >"$t4.shape"
if ! diff "$t1.shape" "$t4.shape"; then
  echo "FAIL: span forest shape differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
rm -f "$t1" "$t4" "$t1.shape" "$t4.shape"

echo "== smoke: parallel driver (jobs=1 vs jobs=4 must print identical tables) =="
j1_out="$(mktemp /tmp/mcml_bench_j1.XXXXXX.txt)"
j4_out="$(mktemp /tmp/mcml_bench_j4.XXXXXX.txt)"
j1_json="$(mktemp /tmp/mcml_bench_j1.XXXXXX.json)"
j4_json="$(mktemp /tmp/mcml_bench_j4.XXXXXX.json)"
dune exec bench/main.exe -- --table 1 --budget 20 --jobs 1 --json "$j1_json" >"$j1_out"
dune exec bench/main.exe -- --table 1 --budget 20 --jobs 4 --json "$j4_json" \
  --baseline "$j1_json" >"$j4_out"
# wall times and output paths legitimately differ; everything else must not
grep -v -e "total wall-clock" -e "^wrote " "$j1_out" >"$j1_out.strip"
grep -v -e "total wall-clock" -e "^wrote " "$j4_out" >"$j4_out.strip"
if ! diff "$j1_out.strip" "$j4_out.strip"; then
  echo "FAIL: table 1 output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
rm -f "$j1_out.strip" "$j4_out.strip"
grep -q '"jobs":1' "$j1_json" || { echo "FAIL: jobs missing from jobs=1 JSON" >&2; exit 1; }
grep -q '"jobs":4' "$j4_json" || { echo "FAIL: jobs missing from jobs=4 JSON" >&2; exit 1; }
for field in cache_hits cache_misses wall_s; do
  grep -q "\"$field\":" "$j4_json" || {
    echo "FAIL: $field missing from jobs=4 JSON" >&2
    exit 1
  }
done
grep -q '"speedup_vs_jobs1":' "$j4_json" || {
  echo "FAIL: speedup_vs_jobs1 missing from jobs=4 JSON (--baseline given)" >&2
  exit 1
}
rm -f "$j1_out" "$j4_out" "$j1_json" "$j4_json"

echo "== bench regression gate vs committed baseline =="
# same settings the committed BENCH_baseline.json was generated with:
# --tables --jobs 1, default seed and budget
fresh="$(mktemp /tmp/mcml_bench_fresh.XXXXXX.json)"
gate_log="$(mktemp /tmp/mcml_gate.XXXXXX.txt)"
if ! dune exec bench/main.exe -- --tables --jobs 1 --json "$fresh" \
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

serve_reqs() {
  for p in $serve_props; do
    for s in 3 4; do
      echo "{\"id\":\"$1-$p-$s\",\"kind\":\"count\",\"prop\":\"$p\",\"scope\":$s}"
    done
  done
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
while read -r p s want; do
  for f in "$out1" "$out2"; do
    got="$(grep "\"prop\":\"$p\"" "$f" | grep "\"scope\":$s," \
      | sed -n 's/.*"count":"\([0-9]*\)".*/\1/p')"
    [ "$got" = "$want" ] || {
      echo "FAIL: served count for $p scope $s = '$got', direct CLI = '$want'" >&2
      exit 1
    }
  done
done <"$direct"

echo "== metrics smoke gate: live scrape of the running server =="
# one deadlined request so the SLO counter families exist, then scrape
# the registry over the wire and require a well-formed exposition —
# no restart, no flush
echo '{"id":"slo","kind":"count","prop":"Reflexive","scope":3,"deadline_ms":60000}' \
  | "$MCML" client --socket "$sock" >/dev/null || {
  echo "FAIL: deadlined warmup request failed" >&2
  exit 1
}
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
while read -r p s want; do
  for f in "$fout1" "$fout2" "$fout3"; do
    got="$(grep "\"prop\":\"$p\"" "$f" | grep "\"scope\":$s," \
      | sed -n 's/.*"count":"\([0-9]*\)".*/\1/p')"
    [ "$got" = "$want" ] || {
      echo "FAIL: fleet count for $p scope $s = '$got', direct CLI = '$want'" >&2
      exit 1
    }
  done
done <"$direct"
fhealth="$(mktemp /tmp/mcml_fleet_health.XXXXXX.json)"
echo '{"id":"h","kind":"health"}' | "$MCML" client --socket "$fsock" >"$fhealth"
grep -q '"restarts":[1-9]' "$fhealth" || {
  echo "FAIL: merged health does not report the shard respawn:" >&2
  cat "$fhealth" >&2
  exit 1
}
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
while read -r p s want; do
  got="$(grep "\"prop\":\"$p\"" "$fout1" | grep "\"scope\":$s," \
    | sed -n 's/.*"count":"\([0-9]*\)".*/\1/p')"
  [ "$got" = "$want" ] || {
    echo "FAIL: replayed count for $p scope $s = '$got', direct CLI = '$want'" >&2
    exit 1
  }
done <"$direct"
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
rm -rf "$fdir" "$fout1" "$fout2" "$fout3" "$fhealth" "$fstats" "$direct"
echo "   30/30 fleet answers identical to direct CLI across a shard kill;"
echo "   restart replayed every key from disk with zero recounts"

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
