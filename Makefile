# Development targets. `make ci` is the pre-merge gate referenced from
# ROADMAP.md's tier-1 verify line.

GO ?= go

# Benchmarks tracked in BENCH_PR7.json (see DESIGN.md, "Performance
# baseline & benchmark JSON").
BENCH_JSON ?= BENCH_PR7.json
BENCH_PAT  ?= BenchmarkCharacterize$$|BenchmarkFig3Bilinear$$|BenchmarkFig6LargestRectangle$$|BenchmarkAnalyzeDesign$$|BenchmarkLUTBilinearLookup$$|BenchmarkSynthesize$$|BenchmarkSynthesizeRestricted$$|BenchmarkWiden$$|BenchmarkSubstitute$$|BenchmarkNetlistClone$$|BenchmarkWriteLiberty$$|BenchmarkParseLiberty$$|BenchmarkBuildQueryStore$$|BenchmarkPowerEstimate$$
BENCH_SCALE ?= small
# Allocation-regression gate: bench-check fails any tracked benchmark
# whose allocs_per_op or bytes_per_op exceeds ALLOC_RATIO x its
# recorded baseline.
ALLOC_RATIO ?= 1.10

.PHONY: ci fmt vet build test test-procs2 test-verify race fuzz fuzz-short bench-json bench-check experiments-small obs-smoke cluster-bench clean

ci: fmt vet build test-procs2 test-verify race fuzz-short bench-check obs-smoke

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
# scenarios. Go's test cache does not key on GOMAXPROCS, so -count=1
# keeps an earlier plain run from answering for this one.
test-procs2:
	GOMAXPROCS=2 $(GO) test -count=1 ./...

# The engine's own edit-sequence tests and fuzz seeds, plus the packages
# whose engines live longest, with every engine Analyze and Update
# cross-checked against a fresh full analysis (STA_VERIFY=1: arrivals,
# slews, loads, fromPin, endpoints and max-cap violations): a query
# store's what-if session keeps one engine through every what-if it
# serves, and synthesis drives one through thousands of edits, so the
# engine's exactness over long edit histories is load-bearing.
# STA_VERIFY is read at package init, which the test cache does not
# record, so -count=1 keeps a cached plain run from answering for it.
test-verify:
	STA_VERIFY=1 $(GO) test -count=1 ./internal/sta ./internal/query ./internal/synth

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
# (Chrome trace, run manifest, bench JSON) with cmd/obscheck. They are
# written inside the checkout, under the git-ignored OBS_DIR, which
# `make clean` removes.
OBS_DIR   ?= .obs_smoke
OBS_TRACE ?= $(OBS_DIR)/obs-trace.json
OBS_BENCH ?= $(OBS_DIR)/obs-bench.json

obs-smoke:
	mkdir -p $(dir $(OBS_TRACE)) $(dir $(OBS_BENCH))
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
	rm -rf $(OBS_DIR)
