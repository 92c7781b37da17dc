# Biscuit repo entry points. `make check` is what CI runs.

GO ?= go
VETTOOL := bin/biscuitvet

# Tier-1 packages: the deterministic kernel the rest of the repo
# depends on (see ROADMAP.md). `make race` runs them under the race
# detector; sim's cooperative scheduler makes races here the most
# dangerous kind.
TIER1 := ./internal/ports/... ./internal/hostif/... ./internal/sim/...

.PHONY: all build test race racefault vet vet-fix fmt check faulttest faultbench healbench benchsmoke benchgate bless-bench servebench tracesmoke telemetrysmoke perfbenchtest clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(TIER1)

# Race detector over the failure paths + trace determinism: the fault
# suite exercises the retry/reconstruction/fallback schedules where a
# data race would silently break determinism, and
# TestTraceDeterministic is the end-to-end witness that the whole span
# pipeline stays schedule-independent.
racefault:
	$(GO) test -race -count=2 ./internal/fault/...
	$(GO) test -race -run $(FAULTRUN) $(FAULTPKGS)
	$(GO) test -race -run TestTraceDeterministic .

# Failure-path suite (DESIGN.md "Fault model"): the fault engine's own
# tests plus every fault/corruption/retry/degradation test across the
# stack, run twice to catch schedule nondeterminism, then a short fuzz
# smoke of the fault-plan parser.
FAULTRUN := 'Fault|Corrupt|Retr|Retir|Timeout|Stall|FallsBack|MediaError|Erase|Unmapped|Backoff|ProgramFailure|GCRelocation|ReadThrough|Q1Q6|SearchCounts|Reconstruct|Scrub|Rain|Parity|DieFail'
FAULTPKGS := ./internal/ftl/... ./internal/hostif/... ./internal/isfs/... \
	./internal/db ./internal/tpch/... ./internal/weblog/... ./internal/bench

faulttest:
	$(GO) test -count=2 ./internal/fault/...
	$(GO) test -count=2 -run $(FAULTRUN) $(FAULTPKGS)
	$(GO) test -fuzz=FuzzFaultPlan -fuzztime=10s ./internal/fault

# Heal bench (DESIGN.md "Self-healing"): the availability-vs-repair
# curve — die failure time x rebuild pacing x migration on/off — as
# BENCH_healcurve.json. Every field is simulated-time deterministic,
# so benchgate compares it exactly against baselines/.
healbench:
	mkdir -p bench-out
	$(GO) run ./cmd/biscuitbench -exp healcurve -json bench-out

# Fault bench: the availability/latency-under-fault curve at reduced
# size (3 sweep points, BENCH_faultcurve.json), traced; tracecheck then
# validates every swept platform's export — async spans must balance
# even on the reconstruction/scrub/fallback paths.
faultbench:
	mkdir -p bench-out
	$(GO) run ./cmd/biscuitbench -exp faultcurve -quick -json bench-out -trace bench-out/faultcurve.trace.json
	for f in bench-out/faultcurve.trace.json*; do $(GO) run ./cmd/tracecheck $$f || exit 1; done

# Benchmark smoke: run the executor, DES-core, proc-wake, and
# fiber-switch benchmarks once (-benchtime=1x) so CI catches bit-rot in
# the benchmark harness without paying for a real measurement run.
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkExecBatch|BenchmarkSimCore|BenchmarkProcWake|BenchmarkFiberSwitch' \
		-benchtime=1x ./internal/db ./internal/sim ./internal/fibers

# Serve bench (DESIGN.md "Array serving layer"): the multi-tenant
# serving curve — per-tenant throughput and tail latency vs offered
# load × device count × scheduling policy — as BENCH_servecurve.json,
# plus one traced serving window: rerun with the same seed, compared
# byte-for-byte, and validated by tracecheck. Every field of the curve
# is simulated-time deterministic, so benchgate compares it exactly
# against baselines/BENCH_servecurve.json.
SERVETRACE := -devices 2 -tenants 2 -sf 0.002 -rate 150 -window 200 -seed 7

servebench:
	mkdir -p bench-out
	$(GO) run ./cmd/biscuitbench -exp servecurve -json bench-out
	$(GO) run ./cmd/sqlssd $(SERVETRACE) -trace bench-out/serve.trace.json > /dev/null
	$(GO) run ./cmd/sqlssd $(SERVETRACE) -trace bench-out/serve.rerun.trace.json > /dev/null
	cmp bench-out/serve.trace.json bench-out/serve.rerun.trace.json
	$(GO) run ./cmd/tracecheck bench-out/serve.trace.json

# Bench gate (DESIGN.md "Simulator performance"): regenerate the
# simcore and table3 measurements and compare them against the
# committed baselines/ JSON with cmd/benchgate. Deterministic fields
# (op counts, final sim times, pop-order checksums, latency summaries)
# must match exactly; allocs/op must not rise; wall-clock throughput
# may drift within GATETOL. This is the CI tripwire that keeps the
# zero-alloc DES core from regressing silently.
GATETOL ?= 0.10

benchgate: benchsmoke servebench healbench
	mkdir -p bench-out
	$(GO) run ./cmd/biscuitbench -exp simcore,table3 -json bench-out
	$(GO) run ./cmd/benchgate -walltol $(GATETOL) baselines bench-out

# bless-bench: accept the current bench-out measurements as the new
# committed baselines (after an intended perf or schema change). Run
# `make benchgate` first so bench-out is fresh, then commit baselines/.
bless-bench:
	$(GO) run ./cmd/benchgate -bless baselines bench-out

# Trace smoke (DESIGN.md "Observability"): run TPC-H Q6 end to end with
# tracing on, validate the export is a well-formed Chrome trace
# (tracecheck also balances every async begin/end), and rerun with the
# same seed to prove the trace is byte-identical — the whole span
# pipeline is part of the deterministic simulation, so any divergence
# is a determinism bug, not noise.
TRACEQ6 := SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
	WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
	AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24

tracesmoke:
	mkdir -p trace-out
	$(GO) run ./cmd/sqlssd -sf 0.002 -seed 7 -q "$(TRACEQ6)" -trace trace-out/q6.json -stats
	$(GO) run ./cmd/sqlssd -sf 0.002 -seed 7 -q "$(TRACEQ6)" -trace trace-out/q6.rerun.json > /dev/null
	cmp trace-out/q6.json trace-out/q6.rerun.json
	$(GO) run ./cmd/tracecheck trace-out/q6.json

# Telemetry smoke (DESIGN.md "Telemetry time series & counter
# tracks"): Q6 with tracing AND gauge sampling on (-sample 100µs),
# rerun with the same seed and byte-compared — the counter tracks ride
# the same deterministic pipeline as spans, so any divergence is a
# determinism bug. tracecheck -counters then validates every counter
# event (args.value present, per-series timestamps non-decreasing,
# tracks named, at least one 'C' in the file), and tracestat must
# parse the merged export and attribute the query window's critical
# path. The first run also exercises -explain and -stats so the
# operator breakdown and series summaries print in the CI log.
telemetrysmoke:
	mkdir -p trace-out
	$(GO) run ./cmd/sqlssd -sf 0.002 -seed 7 -q "$(TRACEQ6)" -sample 100 -trace trace-out/q6.telemetry.json -stats -explain
	$(GO) run ./cmd/sqlssd -sf 0.002 -seed 7 -q "$(TRACEQ6)" -sample 100 -trace trace-out/q6.telemetry.rerun.json > /dev/null
	cmp trace-out/q6.telemetry.json trace-out/q6.telemetry.rerun.json
	$(GO) run ./cmd/tracecheck -counters trace-out/q6.telemetry.json
	$(GO) run ./cmd/tracestat trace-out/q6.telemetry.json > /dev/null
	$(GO) run ./cmd/tracestat -crit -nth -1 trace-out/q6.telemetry.json

# perfbench/ is its own Go module (replace biscuit => ../), so neither
# `go build ./...` nor `go test ./...` at the root compiles it. Vet and
# test it in place, under perfbench/run.sh's offline environment, so an
# internal/ API change cannot break the benchmark unnoticed.
PERFBENCHENV := GOCACHE=$(CURDIR)/.bench_build/go-cache GOMODCACHE=$(CURDIR)/.bench_build/go-mod \
	GOPATH=$(CURDIR)/.bench_build/go-path XDG_CONFIG_HOME=$(CURDIR)/.bench_build/config \
	XDG_CACHE_HOME=$(CURDIR)/.bench_build/cache GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

perfbenchtest:
	mkdir -p .bench_build
	cd perfbench && export $(PERFBENCHENV) && $(GO) vet ./... && $(GO) test ./...

# vet = stock go vet + the biscuitvet analyzer suite (arenaescape,
# detrand, eventpurity, fiberyield, healthstate, ndpframing,
# nogoroutine, portcheck, simtimemix, spanbalance, statnames,
# walltime — see DESIGN.md "Invariants").
# biscuitvet runs
# through the standard vettool protocol; waivers are
# //biscuitvet:ignore <name>: <reason> (a reasonless ignore is itself a
# finding, so `make vet` fails on it).
vet: $(VETTOOL)
	$(GO) vet ./...
	$(GO) vet -vettool=$(VETTOOL) ./...

# vet-fix applies each diagnostic's first suggested fix in place
# (arenaescape's Clone/append-copy rewrites), then reports whatever
# could not be fixed mechanically. The BISCUITVET_FIX toggle is folded
# into the tool's build ID, so fix runs never share go vet's result
# cache with plain vet runs.
vet-fix: $(VETTOOL)
	BISCUITVET_FIX=1 $(GO) vet -vettool=$(VETTOOL) ./...

# Rebuild only when the tool's sources change, so CI can cache the
# binary (keyed on the same file set) and skip the build entirely.
VETSRC := $(shell find cmd/biscuitvet internal/analysis -name '*.go' -not -path '*/testdata/*') go.mod

$(VETTOOL): $(VETSRC)
	$(GO) build -o $(VETTOOL) ./cmd/biscuitvet

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

check: build fmt vet test race

clean:
	rm -rf bin
