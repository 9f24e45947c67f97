#!/bin/sh
# verify.sh — the canonical repository check. Everything here must pass
# before a change lands; CI and the tier-1 line in ROADMAP.md run the same
# sequence.
#
#   1. go vet          — stdlib static checks
#   2. go build        — everything compiles
#   3. twicelint       — determinism, hygiene, and hot-path rules
#                        (internal/lint); the build fails on any finding,
#                        and the failure output ends with a per-rule count
#                        summary (e.g. "2 finding(s) (hotpath: 2)")
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
#   4b. bench smoke    — every sim hot-path and scheduler-step benchmark
#                        body runs once (-benchtime=1x), so a change that
#                        breaks only benchmark-path code cannot land green
#   5. go test -race   — race detector over the event loop, the memory
#                        controller, the TWiCe engine, and the parallel
#                        experiment runner, plus the serial/parallel grid
#                        equivalence test, so the real concurrency (the
#                        cross-cell fan-out) runs under the detector
#   6. fuzz (non-tier-1) — a short trace-reader fuzz burst; new findings
#                        land in internal/trace/testdata/fuzz as regression
#                        seeds. Not part of the tier-1 gate: skip with
#                        SKIP_FUZZ=1.
set -eu

cd "$(dirname "$0")"

echo "==> go vet ./..."
go vet ./...

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

echo "==> go test -run='^\$' -bench='SimRun|SchedulerStep' -benchtime=1x ./internal/sim ./internal/mc"
go test -run='^$' -bench='SimRun|SchedulerStep' -benchtime=1x ./internal/sim ./internal/mc

echo "==> go test -race ./internal/sim/... ./internal/mc/... ./internal/core/... ./internal/parallel/..."
go test -race ./internal/sim/... ./internal/mc/... ./internal/core/... ./internal/parallel/...

echo "==> go test -race -run TestParallelSerialEquivalence ./internal/experiments"
go test -race -run TestParallelSerialEquivalence ./internal/experiments

if [ "${SKIP_FUZZ:-0}" != "1" ]; then
	echo "==> go test -run='^$' -fuzz=FuzzReader -fuzztime=10s ./internal/trace (non-tier-1)"
	go test -run='^$' -fuzz=FuzzReader -fuzztime=10s ./internal/trace
fi

echo "verify: OK"
