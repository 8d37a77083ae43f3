# Check matrix for the selcache reproduction. `make check` is the
# pre-commit gate; the individual targets exist for iterating.

GO ?= go

.PHONY: check vet build test race bench-smoke bench-unit artifacts fuzz-smoke serve-smoke cluster-smoke loadgen-smoke loadgen-bench validate-smoke validate corpus tier1

check: vet build race bench-smoke bench-unit serve-smoke cluster-smoke loadgen-smoke validate-smoke artifacts fuzz-smoke

# tier1 is the fast gate the roadmap requires of every change.
tier1:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also exercises the parallel-vs-serial determinism tests, which spawn
# real workers even on one CPU. The slowest package takes about 14 minutes
# under -race on a 2-vCPU host, past go test's 10-minute default, hence the
# explicit budget (docs/TESTING.md lists the per-package times).
race:
	$(GO) test -race -timeout 30m ./...

# One pooled-vs-serial sweep plus the hot-path and capture
# microbenchmarks, a single iteration each — a smoke test that the
# benchmarks still build and run, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'ParallelSweep|AccessHotPath|TraceRecord' -benchtime=1x .

# The performance benchmark's own unit tests: percentiles, verdicts, span
# attribution, golden rendering (bench/README.md). bench/ is a separate Go
# module, so the root `go test ./...` never reaches it. No workload runs;
# a few seconds including the build.
bench-unit:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Boot the selcached daemon on a random port, hit /healthz and one
# /v1/run through its bundled ctl client, then SIGTERM and assert a
# clean graceful drain (scripts/serve-smoke.sh).
serve-smoke:
	$(GO) build -o /tmp/selcached-smoke ./cmd/selcached
	sh scripts/serve-smoke.sh /tmp/selcached-smoke
	rm -f /tmp/selcached-smoke

# Coordinator + two workers on random ports, the full 13-workload
# base/bypass sweep with one worker SIGKILLed mid-run, asserting the
# merged output is byte-identical to a single-node daemon's
# (scripts/cluster-smoke.sh, docs/CLUSTER.md).
cluster-smoke:
	$(GO) build -o /tmp/selcached-smoke ./cmd/selcached
	sh scripts/cluster-smoke.sh /tmp/selcached-smoke
	rm -f /tmp/selcached-smoke

# Fixed-seed open-loop traffic against a deliberately narrow daemon:
# plan rendering must be byte-identical across runs, the warm phase must
# serve from the memory tier, the overload burst must shed with 429 +
# Retry-After, and a second loadgen process must observe byte-identical
# response bodies (scripts/loadgen-smoke.sh, docs/SERVICE.md).
loadgen-smoke:
	$(GO) build -o /tmp/selcached-smoke ./cmd/selcached
	$(GO) build -o /tmp/loadgen-smoke ./cmd/loadgen
	sh scripts/loadgen-smoke.sh /tmp/selcached-smoke /tmp/loadgen-smoke
	rm -f /tmp/selcached-smoke /tmp/loadgen-smoke

# Regenerate the committed BENCH_loadgen.json: one deterministic traffic
# plan measured cold, warm, peer-served and under overload, with per-cell
# body hashes proving byte-identity across regimes and processes
# (scripts/loadgen-bench.sh). Wall times and latencies are host
# measurements — expect them to differ run to run.
loadgen-bench:
	$(GO) build -o /tmp/selcached-bench ./cmd/selcached
	$(GO) build -o /tmp/loadgen-bench ./cmd/loadgen
	sh scripts/loadgen-bench.sh /tmp/selcached-bench /tmp/loadgen-bench BENCH_loadgen.json
	rm -f /tmp/selcached-bench /tmp/loadgen-bench

# Differential-oracle spot check: one workload per access-pattern class,
# every version and both hardware mechanisms, engine vs naive reference in
# lockstep (docs/VALIDATION.md). The full matrix is `make validate`.
validate-smoke:
	$(GO) run ./cmd/validate -short

validate:
	$(GO) run ./cmd/validate

# The full generative corpus: 1000+ fingerprint-distinct kernels from all
# 81 synth families, swept across every version, 32 kernels
# oracle-spot-checked (docs/CORPUS.md).
corpus:
	$(GO) run ./cmd/corpus -n 1000 -sample 32 -out /tmp/corpus.json

# Byte-check every deterministic committed artifact against a fresh
# regeneration. cmd/corpus -verify reruns each corpus artifact's pipeline
# from the corpus header it records and requires exactly the committed
# bytes (synthesis, sweep, profiles, oracle verdicts, estimator scores and
# the energy grid must all be deterministic); the paper's tables and
# figures must match experiments_output.txt (about a minute on 2 CPUs).
# Regenerate after an intended change with:
#   go run ./cmd/corpus -n 96 -sample 8 -out CORPUS_smoke.json
#   go run ./cmd/corpus -estimate -n 96 -out ESTIMATE_smoke.json
#   go run ./cmd/corpus -energy -n 48 -out ENERGY_smoke.json
#   go run ./cmd/experiments > experiments_output.txt
artifacts:
	$(GO) run ./cmd/corpus -verify CORPUS_smoke.json
	$(GO) run ./cmd/corpus -verify ESTIMATE_smoke.json
	$(GO) run ./cmd/corpus -verify ENERGY_smoke.json
	$(GO) run ./cmd/experiments | cmp - experiments_output.txt

# 30 seconds of each fuzz target: enough to shake out codec and
# marker-elimination regressions on fresh inputs without stalling the
# gate. Longer campaigns: go test ./internal/trace -fuzz FuzzTraceRoundTrip
fuzz-smoke:
	$(GO) test ./internal/trace -fuzz FuzzTraceRoundTrip -fuzztime 30s -run '^$$'
	$(GO) test ./internal/regions -fuzz FuzzMarkerBalance -fuzztime 30s -run '^$$'
	$(GO) test ./internal/oracle -fuzz FuzzSynthOracleEquivalence -fuzztime 20s -run '^$$'
	$(GO) test ./internal/oracle -fuzz FuzzPolicyOracleEquivalence -fuzztime 20s -run '^$$'
	$(GO) test ./internal/sim -fuzz FuzzEmitBlockMatchesEmit -fuzztime 20s -run '^$$'
