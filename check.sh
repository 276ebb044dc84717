#!/bin/sh
# check.sh — the repo's full quality gate. Exits non-zero on any finding.
#
#   build    go build ./...
#   format   gofmt -l on all tracked Go files
#   vet      go vet ./...
#   orcavet  the project's own static analyzers (cmd/orcavet): locks,
#            publish, hotpath, golifetime, ctxflow, errdrop and
#            opexhaustive — one check per invariant that neither the
#            compiler, go vet nor a generated test already enforces (see
#            DESIGN.md §8). The binary is compiled once to a temp path so
#            the 60s budget times only the analysis; exit 1 means findings
#            (or a stale //orcavet:ignore), exit 2 means the analysis itself
#            broke (loader error), which is reported as such.
#            internal/analysis is part of ./..., so the suite also
#            analyzes its own implementation.
#   generate re-runs cmd/optgen via go generate and fails on any diff
#            in defs/, the *.gen.go and *.gen_test.go outputs, or
#            docs/opmatrix.md — hand-edited generated code and stale
#            regeneration both show up here.
#   test     go test ./...
#   race     go test -race over the concurrency-heavy packages
#            (search scheduler, memo, gpos worker pool, core — the
#            multi-stage driver shares one Memo across scheduler runs —
#            serve, whose admission/drain paths are all-concurrent, and
#            plancache, whose sharded LRU and singleflight are too)
#   smoke    build cmd/orcad, start it on an ephemeral port against the
#            demo catalog, require /readyz, one full /optimize round
#            trip plus a warm repeat that must be a plan-cache hit
#            (X-Orca-Cache: hit), then SIGTERM and require a clean
#            drained exit
#   chaos    a randomized fault-injection schedule (error/panic/delay at
#            registered fault points) run under -race; the seed rotates
#            daily and is printed on failure — replay with
#            ORCA_CHAOS=1 ORCA_CHAOS_SEED=<n> go test -race -run
#            TestChaosSchedule ./internal/core/ (plus the service-level
#            storm -run TestServeChaosStorm and the plan-cache schedule
#            -run TestServeCacheChaos, both ./internal/serve/)
#   membench one short pass over the Memo hot-path microbenchmarks
#            (internal/memo BenchmarkMemo*) — catches compile rot and
#            gross regressions
#   search   one pass of BenchmarkOptimizationTime (the 32 TPC-DS
#            queries through the job scheduler) with -benchmem; fails
#            when allocs/op exceeds 1.2x gate_allocs_per_pass in
#            BENCH_search.json. Allocation counts repeat run to run, so
#            they are gated; wall time is printed, not gated. Regenerate
#            the file with `go run ./cmd/benchmarks -experiment=search
#            -scale=1 -json` when a change moves the count on purpose.
#   plans    the benchmark of record with 3 s timed phases (`go run
#            ./benchmark --seconds 3`); fails, printing a per-workload
#            diff, when plan_work_units, serve.failed or any of
#            verify.plans/wrong_plans/known_wrong_plans/nondeterministic
#            differs from BENCH_plans.json. These counters are exact and
#            independent of host speed and seed, so any difference means a
#            plan or a verified reply changed; update the file in the same
#            change that moves a plan on purpose.
#
# Run from the repository root: ./check.sh
set -eu
cd "$(dirname "$0")"

echo "==> build"
go build ./...

echo "==> gofmt"
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> orcavet (compiled once)"
orcavet_tmp=$(mktemp -d)
trap 'rm -rf "$orcavet_tmp"' EXIT
go build -o "$orcavet_tmp/orcavet" ./cmd/orcavet
orcavet_start=$(date +%s)
orcavet_rc=0
"$orcavet_tmp/orcavet" ./... || orcavet_rc=$?
orcavet_elapsed=$(($(date +%s) - orcavet_start))
echo "    orcavet analysis finished in ${orcavet_elapsed}s (compile excluded)"
case "$orcavet_rc" in
0) ;;
1)
    echo "orcavet: finding(s) above — fix them, or waive one with" >&2
    echo "//orcavet:ignore:<analyzer> <reason>" >&2
    exit 1
    ;;
*)
    echo "orcavet: internal error (exit $orcavet_rc); the findings gate did not run" >&2
    exit "$orcavet_rc"
    ;;
esac
if [ "$orcavet_elapsed" -ge 60 ]; then
    echo "orcavet: exceeded the 60s budget (${orcavet_elapsed}s)" >&2
    exit 1
fi

echo "==> go generate drift gate (defs/*.opt -> *.gen.go, *.gen_test.go, docs/opmatrix.md)"
go generate ./...
if ! git diff --exit-code -- defs '*.gen.go' '*.gen_test.go' docs/opmatrix.md; then
    echo "generate: generated outputs are stale or hand-edited; commit the" >&2
    echo "result of 'go generate ./...' (cmd/optgen) instead" >&2
    exit 1
fi

echo "==> go test"
go test ./...

echo "==> go test -race (scheduler / memo / gpos / core / serve / plancache)"
go test -race ./internal/search/... ./internal/memo/... ./internal/gpos/... ./internal/core/... ./internal/serve/... ./internal/plancache/...

echo "==> orcad smoke (ephemeral port, /readyz, cold+warm round trip, SIGTERM drain)"
go build -o "$orcavet_tmp/orcad" ./cmd/orcad
rm -f "$orcavet_tmp/orcad.addr"
"$orcavet_tmp/orcad" -demo-catalog -addr=127.0.0.1:0 \
    -addr-file="$orcavet_tmp/orcad.addr" 2> "$orcavet_tmp/orcad.log" &
orcad_pid=$!
addr=""
for _ in $(seq 1 100); do
    [ -s "$orcavet_tmp/orcad.addr" ] && { addr=$(cat "$orcavet_tmp/orcad.addr"); break; }
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "orcad smoke: server never wrote its address" >&2
    cat "$orcavet_tmp/orcad.log" >&2
    kill "$orcad_pid" 2>/dev/null || true
    exit 1
fi
curl -sf "http://$addr/readyz" > /dev/null || {
    echo "orcad smoke: /readyz failed" >&2; kill "$orcad_pid"; exit 1; }
curl -sf -X POST "http://$addr/optimize" \
    -d '{"sql":"SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b ORDER BY t1.a"}' \
    | grep -q '"plan"' || {
    echo "orcad smoke: /optimize round trip failed" >&2; kill "$orcad_pid"; exit 1; }
# The identical second request must be served from the parameterized plan
# cache: assert the X-Orca-Cache: hit header on the warm round trip.
curl -sf -D - -o /dev/null -X POST "http://$addr/optimize" \
    -d '{"sql":"SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b ORDER BY t1.a"}' \
    | grep -qi '^X-Orca-Cache: hit' || {
    echo "orcad smoke: warm second request was not a plan-cache hit" >&2
    kill "$orcad_pid"; exit 1; }
kill -TERM "$orcad_pid"
orcad_rc=0
wait "$orcad_pid" || orcad_rc=$?
if [ "$orcad_rc" -ne 0 ]; then
    echo "orcad smoke: exit $orcad_rc after SIGTERM (want clean drained exit)" >&2
    cat "$orcavet_tmp/orcad.log" >&2
    exit 1
fi
grep -q "drained, exiting" "$orcavet_tmp/orcad.log" || {
    echo "orcad smoke: no drain confirmation in the log" >&2
    cat "$orcavet_tmp/orcad.log" >&2
    exit 1
}

chaos_seed="${ORCA_CHAOS_SEED:-$(date +%Y%j)}"
echo "==> chaos (randomized fault schedule under -race, seed $chaos_seed)"
ORCA_CHAOS=1 ORCA_CHAOS_SEED="$chaos_seed" \
    go test -race -count=1 -run TestChaosSchedule ./internal/core/
echo "==> chaos storm (serve under seeded faults at 4x admission, seed $chaos_seed)"
ORCA_CHAOS=1 ORCA_CHAOS_SEED="$chaos_seed" \
    go test -race -count=1 -run TestServeChaosStorm ./internal/serve/
echo "==> chaos plan cache (corrupt/stale plancache faults, seed $chaos_seed)"
ORCA_CHAOS=1 ORCA_CHAOS_SEED="$chaos_seed" \
    go test -race -count=1 -run TestServeCacheChaos ./internal/serve/

echo "==> memo microbenchmarks (smoke pass)"
go test -run '^$' -bench 'BenchmarkMemo' -benchtime=1000x ./internal/memo/

echo "==> search perf smoke (one TPC-DS pass, allocs/op vs BENCH_search.json)"
search_gate=$(sed -n 's/.*"gate_allocs_per_pass": *\([0-9][0-9]*\).*/\1/p' BENCH_search.json)
if [ -z "$search_gate" ]; then
    echo "search smoke: no gate_allocs_per_pass in BENCH_search.json" >&2
    exit 1
fi
search_line=$(go test -run '^$' -bench 'BenchmarkOptimizationTime$' -benchtime 1x -benchmem . |
    grep '^BenchmarkOptimizationTime')
search_allocs=$(echo "$search_line" | sed -n 's/.* \([0-9][0-9]*\) allocs\/op.*/\1/p')
search_ns=$(echo "$search_line" | awk '{print $3}')
if [ -z "$search_allocs" ]; then
    echo "search smoke: could not read allocs/op from: $search_line" >&2
    exit 1
fi
echo "    $search_allocs allocs/pass (gate $search_gate x1.2), $((search_ns / 1000000)) ms/pass (not gated)"
if [ "$((search_allocs * 10))" -gt "$((search_gate * 12))" ]; then
    echo "search smoke: $search_allocs allocs/pass exceeds 1.2x the checked-in $search_gate;" >&2
    echo "find the new allocation with -memprofile, or regenerate BENCH_search.json" >&2
    exit 1
fi

echo "==> plan gate (go run ./benchmark --seconds 3 vs BENCH_plans.json)"
go run ./benchmark --seconds 3 > "$orcavet_tmp/bench.txt"
sed -n 's/^ *"\([a-z_]*\) \([a-z_.]*\)": *\([0-9][0-9]*\),\{0,1\}$/\1 \2 \3/p' BENCH_plans.json |
    sort > "$orcavet_tmp/plans.want"
awk 'NF == 4 && $2 ~ /^(plan_work_units|serve\.failed|verify\.(plans|wrong_plans|known_wrong_plans|nondeterministic))$/ {
    printf "%s %s %d\n", $1, $2, $3 }' "$orcavet_tmp/bench.txt" | sort > "$orcavet_tmp/plans.got"
if [ ! -s "$orcavet_tmp/plans.want" ] || ! diff -u "$orcavet_tmp/plans.want" "$orcavet_tmp/plans.got"; then
    echo "plan gate: the benchmark's exact plan counters differ from BENCH_plans.json" >&2
    echo "(- expected, + this run; lines are 'workload metric value'); a moved plan" >&2
    echo "or verified reply must be explained, and the file updated in the same change" >&2
    exit 1
fi
echo "    $(wc -l < "$orcavet_tmp/plans.got") exact counters match BENCH_plans.json"

echo "All checks passed."
