# Same entry points CI uses (.github/workflows/ci.yml); run `make check`
# before sending a PR.

GO ?= go

.PHONY: all build test race bench bench-json bench-compare bench-idle-1m serve-smoke slo-compare obs-smoke trace-smoke fmt vet vet-perfbench check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# One pass over every benchmark as a smoke test; use `go test -bench=. ./...`
# directly for real measurements.
bench:
	$(GO) test -run=xxx -bench=. -benchtime=1x ./...

# The same pass as a machine-readable test2json stream; CI uploads the
# result as the BENCH_pr.json artifact to record the perf trajectory.
bench-json:
	$(GO) test -json -run=xxx -bench=. -benchtime=1x ./... > BENCH_pr.json

# Compare the fresh BENCH_pr.json against the committed baseline, so
# regressions on the hot paths (Advance, EvaluateDue, dispatch) are
# visible per PR. Uses benchstat when installed, else the built-in table.
# BENCH_THRESHOLD > 0 turns the comparison into a gate: exit non-zero when
# any benchmark's ns/op regresses beyond that percentage (200 is wide
# enough for single-iteration smoke noise but fails on order-of-magnitude
# breaks of the scenario paths; sub-100µs benchmarks are exempt via the
# tool's -floor, since one smoke iteration of those is pure noise).
# BENCH_ALLOC_THRESHOLD gates allocs/op the same way (benchmarks under 100
# baseline allocs/op are exempt via -allocfloor — tiny counts swing hugely
# in percent). The defaults match CI so `make check` means what CI means;
# set either to 0 for an informational-only comparison.
BENCH_THRESHOLD ?= 200
BENCH_ALLOC_THRESHOLD ?= 200
bench-compare: bench-json
	$(GO) run ./cmd/mobiquery-benchcmp -baseline BENCH_baseline.json -current BENCH_pr.json -threshold $(BENCH_THRESHOLD) -allocthreshold $(BENCH_ALLOC_THRESHOLD)

# The million-subscriber idle gate on its own: one pass of the idle arm of
# BenchmarkAdvance1M, which b.Fatals if the timed loop allocates at all.
# bench-compare's -allocfloor exempts near-zero baselines, so this — not
# the threshold comparison — is what holds the 0-alloc idle invariant.
bench-idle-1m:
	$(GO) test -run=xxx -bench='^BenchmarkAdvance1M$$/^Idle$$' -benchtime=1x .

# Build the network front-end and drive it with a short seeded workload;
# writes the SLO_pr.json artifact CI uploads and slo-compare gates,
# METRICS_pr.txt — a mid-run /metrics scrape, validated in-process and
# again by obs-smoke — and TRACE_pr.ndjson, the joined client+server trace
# log trace-smoke validates. The parameters mirror the CI smoke job: small
# field, sub-second periods, an elasticity wave landing mid-run, every
# second subscription traced.
serve-smoke:
	$(GO) build -o bin/mobiquery-serve ./cmd/mobiquery-serve
	$(GO) run ./cmd/mobiquery-loadgen -serve bin/mobiquery-serve -out SLO_pr.json \
		-metrics-out METRICS_pr.txt -metrics-final-out METRICS_final.txt \
		-trace-out TRACE_pr.ndjson -trace-every 2 \
		-nodes 2000 -tick 20ms -workers 8 -warmup 1s -duration 6s \
		-wave-workers 8 -wave-at 3s -period 200ms -deadline 100ms \
		-fresh 200ms -lifetime 1s -jit-every 4 -course-every 5 \
		-large-radius 200 -large-every 16

# Compare the fresh SLO_pr.json against the committed SLO_baseline.json.
# SLO_THRESHOLD > 0 gates three p99s — steady subscribe latency, steady
# delivery lateness, wave subscribe latency — failing beyond that
# percentage over max(baseline, floor); the floors absorb shared-runner
# scheduler noise on millisecond-scale baselines. The default matches CI.
SLO_THRESHOLD ?= 200
slo-compare: serve-smoke
	$(GO) run ./cmd/mobiquery-slocmp -baseline SLO_baseline.json -current SLO_pr.json -threshold $(SLO_THRESHOLD)

# Validate the mid-run /metrics scrape serve-smoke wrote: exposition
# syntax, TYPE discipline, histogram monotonicity. Fails on a malformed
# or empty exposition — the CI loadgen-smoke job runs this before
# uploading METRICS_pr.txt.
obs-smoke: serve-smoke
	$(GO) run ./cmd/mobiquery-slocmp -expfmt METRICS_pr.txt

# Validate the trace log serve-smoke wrote and render the lateness
# attribution table: span-id derivation, monotone segment chains, no
# duplicates, and per-class traced counts reconciled against the
# END-of-run /metrics ledger (the mid-run METRICS_pr.txt scrape predates
# the log's later spans, so only the final scrape's counters cover every
# span). -check makes any integrity violation fail the build;
# TRACE_attrib.txt is the CI artifact.
trace-smoke: serve-smoke
	$(GO) run ./cmd/mobiquery-tracestat -trace TRACE_pr.ndjson \
		-metrics METRICS_final.txt -out TRACE_attrib.txt -check

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# perfbench/ is a module of its own (it replaces mobiquery with ../), so the
# root build never compiles it; vetting it catches an API change that
# breaks the repository benchmark.
vet-perfbench:
	cd perfbench && $(GO) vet ./...

# serve-smoke is a prerequisite of slo-compare, obs-smoke, and
# trace-smoke; make runs it once per invocation, so check drives one
# smoke run and gates all three artifacts off it.
check: build fmt vet vet-perfbench test race bench-compare slo-compare obs-smoke trace-smoke
