#!/bin/sh
# Full verification gate: build, vet, race-enabled tests, golden replay
# diff, every msbench experiment and its benchmark run once, short
# overlay and result-encoder fuzz smokes, the msserve
# end-to-end smoke (race-built server, byte-identical results, graceful
# drain), and the repository benchmark's smoke test. Mirrors `make
# check` for environments without make.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== go test -race ./..."
go test -race ./...
echo "== replay-diff (golden trace, serial vs parallel)"
go test -run TestGoldenTrace -count=1 ./internal/replay
echo "== msbench -experiment all (every registry experiment, rendered as markdown)"
go run ./cmd/msbench -experiment all
echo "== experiment benchmarks (BenchmarkExperiments, one iteration each)"
go test -run - -bench BenchmarkExperiments -benchtime 1x .
echo "== docs-check (dead intra-repo links)"
sh scripts/docs_check.sh
echo "== overlay fuzz smoke (5s)"
go test -run - -fuzz FuzzPlanInvariants -fuzztime 5s ./internal/overlay
echo "== result-encoder fuzz smoke (5s; AppendJSON vs json.Marshal)"
go test -run - -fuzz FuzzResultAppendJSON -fuzztime 5s ./internal/fleet
echo "== serve smoke (msserve + msload byte-identical, race-built)"
sh scripts/serve_smoke.sh
echo "== perfbench smoke (every workload at minimal size; fleet-dense digests at Workers=1 and nproc must match)"
(cd perfbench && go test ./...)
if [ "${MS_SKIP_BENCH:-}" = "1" ]; then
    echo "== bench-compare (skipped: MS_SKIP_BENCH=1)"
else
    echo "== bench-compare (msbench metrics vs committed baseline)"
    sh scripts/bench_compare.sh
fi
echo "OK"
