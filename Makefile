# Development targets. `make ci` is the pre-merge gate referenced from
# ROADMAP.md's tier-1 verify line.

GO ?= go

# Benchmarks tracked in BENCH_PR7.json (see DESIGN.md, "Performance
# baseline & benchmark JSON").
BENCH_JSON ?= BENCH_PR7.json
BENCH_PAT  ?= BenchmarkCharacterize$$|BenchmarkFig3Bilinear$$|BenchmarkFig6LargestRectangle$$|BenchmarkAnalyzeDesign$$|BenchmarkLUTBilinearLookup$$|BenchmarkSynthesize$$|BenchmarkSynthesizeRestricted$$|BenchmarkWiden$$|BenchmarkWriteLiberty$$|BenchmarkParseLiberty$$|BenchmarkBuildQueryStore$$|BenchmarkPowerEstimate$$
BENCH_SCALE ?= small
# Allocation-regression gate: bench-check fails any tracked benchmark
# whose allocs_per_op or bytes_per_op exceeds ALLOC_RATIO x its
# recorded baseline.
ALLOC_RATIO ?= 1.10

.PHONY: ci fmt vet build test test-procs2 race fuzz fuzz-short bench-json bench-check experiments-small obs-smoke cluster-bench clean

ci: fmt vet build test-procs2 race fuzz-short bench-check obs-smoke

# Every Go file gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 on two cores whatever the host has: a test that holds only at
# GOMAXPROCS=1 (a proxy counter that parallel code also bumps) fails here.
# Tier-1 includes cmd/stcd's TestEndToEnd, which drives real stcd
# processes through the serve, crash-recovery, query, load and cluster
# scenarios.
test-procs2:
	GOMAXPROCS=2 $(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz pass over the Liberty parser (seeds always run under
# plain `go test`; this explores beyond them).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseLiberty -fuzztime=30s ./internal/liberty

# One short iteration over every fuzz target, so the NaN-lookup guard,
# the Liberty and Verilog parsers (each held to the parser it replaced),
# the incremental-STA equivalence contract, and the journal's torn-tail
# recovery cannot regress silently in CI.
fuzz-short:
	$(GO) test -run=^$$ -fuzz=FuzzLookup -fuzztime=5s ./internal/lut
	$(GO) test -run=^$$ -fuzz=FuzzParseLiberty -fuzztime=5s ./internal/liberty
	$(GO) test -run=^$$ -fuzz=FuzzParseVerilog -fuzztime=5s ./internal/netlist
	$(GO) test -run=^$$ -fuzz=FuzzEngineEdits -fuzztime=5s ./internal/sta
	$(GO) test -run=^$$ -fuzz=FuzzReplay -fuzztime=5s ./internal/service/journal

# Regenerate the current numbers in $(BENCH_JSON) from the tracked
# benchmarks (STC_BENCH=$(BENCH_SCALE) flow; seed baselines recorded in
# the file are preserved). See DESIGN.md for the schema.
bench-json:
	STC_BENCH=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem . \
		| $(GO) run ./cmd/benchjson -out $(BENCH_JSON)

# Validate the tracked benchmark JSON (schema + phases) and fail on
# allocs_per_op or bytes_per_op regressions beyond ALLOC_RATIO x
# baseline.
bench-check:
	$(GO) run ./cmd/obscheck -bench $(BENCH_JSON) -allocratio $(ALLOC_RATIO)

experiments-small:
	$(GO) run ./cmd/experiments -small

# End-to-end observability smoke: run the small experiment battery with
# tracing and bench JSON on, then validate the three artifacts
# (Chrome trace, run manifest, bench JSON) with cmd/obscheck.
OBS_TRACE ?= /tmp/obs-trace.json
OBS_BENCH ?= /tmp/obs-bench.json

obs-smoke:
	$(GO) run ./cmd/experiments -small -trace $(OBS_TRACE) -benchjson $(OBS_BENCH)
	$(GO) run ./cmd/obscheck -trace $(OBS_TRACE) \
		-manifest $(basename $(OBS_TRACE)).manifest.json -bench $(OBS_BENCH)

# Cluster scaling curve: single-node baseline vs 1/2/4 workers at
# N=200 with simulated characterizer latency; writes BENCH_PR9.json.
# Not part of `make ci` (it takes minutes by construction).
cluster-bench:
	$(GO) test ./cmd/stcd -run '^$$' -bench ClusterCharacterize -benchtime 1x -timeout 30m

clean:
	$(GO) clean ./...
