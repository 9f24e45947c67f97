#!/bin/sh
# verify.sh — the canonical repository check. Everything here must pass
# before a change lands; CI and the tier-1 line in ROADMAP.md run the same
# sequence.
#
#   1. go vet          — stdlib static checks
#   1b. gofmt          — no tracked .go file (bench/ included, the ignored
#                        .bench_build/ build output excluded) needs
#                        reformatting; the check lists any that do
#   2. go build        — everything compiles
#   3. twicelint       — determinism, hygiene, hot-path, and dead-export
#                        rules (internal/lint); the build fails on any
#                        finding, and the failure output ends with a
#                        per-rule count summary (e.g. "2 finding(s)
#                        (hotpath: 2)")
#   3b. twicelint self-check — the analyzer analyzes its own engine, so a
#                        change to internal/lint cannot land findings in
#                        the tool that is supposed to report them
#   4. go test         — full test suite (includes the golden linter tests,
#                        the whole-repo lint run, the same-seed byte-identity
#                        determinism tests, and the cross-commit golden
#                        digests of internal/experiments)
#   4a. bench module   — go vet and short tests of the separate bench/
#                        module, which `go test ./...` at the root skips, so
#                        deleting an API the benchmark compiles against
#                        fails here
#   4b. bench golden   — the benchmark recomputes its golden digests
#                        (-write-golden into a temporary file, ~6.5 s on
#                        2 vCPUs) and the result must equal bench/golden.json
#                        byte for byte; unlike the experiments digests, these
#                        pin multi-core PAR-BS output (mix-high, lbm-stream)
#   4c. bench smoke    — every sim hot-path, scheduler-step, DRAM bank
#                        (activate, auto-refresh, remap), DRAM device
#                        construction (BenchmarkNewDevice), TWiCe table
#                        (count, prune) and cache hierarchy (stream, random
#                        access) benchmark body
#                        runs once (-benchtime=1x), so a change that breaks
#                        only benchmark-path code cannot land green
#   4d. root benchmarks — every paper table/figure and ablation benchmark in
#                        bench_test.go runs once (-benchtime 1x, ~17 s on
#                        2 vCPUs); `go test ./...` only compiles them
#   4e. examples       — every program under examples/ is built and run
#                        once from a temporary directory (telemetry writes
#                        occupancy.csv into its working directory); a
#                        non-zero exit fails the build (~14 s on 2 vCPUs)
#   5. go test -race   — race detector over the event loop, the memory
#                        controller, the TWiCe engine, and the parallel
#                        experiment runner, plus the serial/parallel grid
#                        equivalence test and the grid test where two
#                        workers record telemetry and traces into one
#                        collector, so the real concurrency (the cross-cell
#                        fan-out) runs under the detector
#   6. fuzz (non-tier-1) — short fuzz bursts of the trace reader, of
#                        machine construction (FuzzNewMachine: a fuzzed
#                        controller, timing and TWiCe config must give an
#                        error or a machine that runs 300 requests) and of
#                        the TWiCe tables (FuzzTableOps: a fuzzed op stream
#                        must match the reference models); new findings land
#                        in the package's testdata/fuzz as regression seeds.
#                        Not part of the tier-1 gate: skip with SKIP_FUZZ=1.
set -eu

cd "$(dirname "$0")"

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l (tracked .go files)"
unformatted=$( (git ls-files '*.go' 2>/dev/null || find . -name '*.go') | grep -v '^\(\./\)\{0,1\}\.bench_build/' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting (run gofmt -w):" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> twicelint ./..."
go run ./cmd/twicelint ./...

echo "==> twicelint self-check ./internal/lint/..."
go run ./cmd/twicelint ./internal/lint/...

echo "==> go test ./..."
go test ./...

echo "==> (cd bench && go vet ./... && go test -short ./...)"
(cd bench && go vet ./... && go test -short ./...)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "==> (cd bench && go run . -write-golden \$tmp/golden.json) && cmp with bench/golden.json"
(cd bench && go run . -write-golden "$tmp/golden.json")
cmp "$tmp/golden.json" bench/golden.json

echo "==> go test -run='^\$' -bench=. -benchtime=1x ./internal/sim ./internal/mc ./internal/dram ./internal/core ./internal/cache"
go test -run='^$' -bench=. -benchtime=1x ./internal/sim ./internal/mc ./internal/dram ./internal/core ./internal/cache

echo "==> go test -run '^\$' -bench . -benchtime 1x ."
go test -run '^$' -bench . -benchtime 1x .

echo "==> examples (build each, run once in a temporary directory)"
exdir="$tmp/examples"
mkdir "$exdir"
for ex in examples/*/; do
	name=$(basename "$ex")
	echo "    $name"
	go build -o "$exdir/$name" "./$ex"
	(cd "$exdir" && "./$name" >/dev/null)
done

echo "==> go test -race ./internal/sim/... ./internal/mc/... ./internal/core/... ./internal/parallel/..."
go test -race ./internal/sim/... ./internal/mc/... ./internal/core/... ./internal/parallel/...

echo "==> go test -race -run 'TestParallelSerialEquivalence|TestProgressDoesNotChangeCSV' ./internal/experiments"
go test -race -run 'TestParallelSerialEquivalence|TestProgressDoesNotChangeCSV' ./internal/experiments

if [ "${SKIP_FUZZ:-0}" != "1" ]; then
	echo "==> go test -run='^$' -fuzz=FuzzReader -fuzztime=10s ./internal/trace (non-tier-1)"
	go test -run='^$' -fuzz=FuzzReader -fuzztime=10s ./internal/trace
	echo "==> go test -run='^$' -fuzz=FuzzNewMachine -fuzztime=10s ./internal/sim (non-tier-1)"
	go test -run='^$' -fuzz=FuzzNewMachine -fuzztime=10s ./internal/sim
	echo "==> go test -run='^$' -fuzz=FuzzTableOps -fuzztime=10s ./internal/core (non-tier-1)"
	go test -run='^$' -fuzz=FuzzTableOps -fuzztime=10s ./internal/core
fi

echo "verify: OK"
