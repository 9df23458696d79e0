# Developer entry points mirroring the CI gates, so `make lint test` locally
# proves what CI will prove. Run `make help` for the list.

GO ?= go

.PHONY: help build lint test race fuzz-smoke chaos-smoke bench-smoke examples sim-golden cover loc bench-e2e bench-e2e-smoke

help: ## list targets
	@awk -F':.*## ' '/^[a-z0-9-]+:.*## /{printf "  %-16s %s\n", $$1, $$2}' $(MAKEFILE_LIST)

build: ## compile everything
	$(GO) build ./...

lint: ## the CI static gates: gofmt, vet, staticcheck (if installed), aiclint
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi
	timeout 120 $(GO) run ./cmd/aiclint ./...

test: ## full test suite, plus the nested bench module's (root ./... does not reach it)
	$(GO) test ./...
	cd bench && $(GO) test ./...

race: ## full suite under the race detector, shuffled, as CI runs it
	$(GO) test -race -shuffle=on ./...

fuzz-smoke: ## short runs of every fuzz target, as CI runs them
	$(GO) test -run=^$$ -fuzz=^FuzzDecode$$ -fuzztime=20s ./internal/delta
	$(GO) test -run=^$$ -fuzz=^FuzzRoundTrip$$ -fuzztime=20s ./internal/delta
	$(GO) test -run=^$$ -fuzz=FuzzXORRoundTrip -fuzztime=20s ./internal/delta
	$(GO) test -run=^$$ -fuzz=FuzzDecodePageAligned -fuzztime=20s ./internal/delta
	$(GO) test -run=^$$ -fuzz=FuzzPageAlignedParallel -fuzztime=20s ./internal/delta
	$(GO) test -run=^$$ -fuzz=FuzzPageAlignedFastPath -fuzztime=20s ./internal/delta
	$(GO) test -run=^$$ -fuzz=FuzzEncodeMatchesReference -fuzztime=20s ./internal/delta
	$(GO) test -run=^$$ -fuzz=FuzzChunker -fuzztime=20s ./internal/delta
	$(GO) test -run=^$$ -fuzz=FuzzDecodeStriped -fuzztime=20s ./internal/ckpt
	$(GO) test -run=^$$ -fuzz=FuzzReadFrame -fuzztime=20s ./internal/remote
	$(GO) test -run=^$$ -fuzz=FuzzServerPutProtocol -fuzztime=20s ./internal/remote
	$(GO) test -run=^$$ -fuzz=FuzzGetSeqsReply -fuzztime=20s ./internal/remote
	$(GO) test -run=^$$ -fuzz=FuzzParseSchedule -fuzztime=20s ./internal/chaos
	$(GO) test -run=^$$ -fuzz=FuzzParseRecipe -fuzztime=20s ./internal/storage
	$(GO) test -run=^$$ -fuzz=FuzzFSStoreOps -fuzztime=20s ./internal/storage

chaos-smoke: ## the four chaos smoke steps CI runs, under the race detector: soak seeds, ring churn, compaction chaos, saturation shed and restore of replication
	$(GO) test -race -run 'TestChaosShort|TestChaosSmokeSeeds|TestChaosKnownBad' ./internal/chaos
	$(GO) test -race -run 'TestRingChurn' ./internal/chaos
	$(GO) test -race -short -run 'TestCompactionChaos' ./internal/chaos
	$(GO) test -race -run 'TestSaturationShedRecover' ./internal/chaos

bench-smoke: ## one iteration of the codec, dedup and simulator benchmarks, as CI runs them, so they cannot rot
	$(GO) test -run '^$$' -bench 'PageAligned|EncodeAllocs|RestoreChain|CheckpointWrite|AICRunSphinx3|MonteCarloValidation|DeciderWorkSpanSearch' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'DedupResolve|DedupPut' -benchtime 1x -benchmem ./internal/storage

examples: ## run every example end to end, as CI runs them; fails on the first non-zero exit
	@set -e; for d in examples/*/; do echo "== $${d%/}"; $(GO) run ./$${d%/}; done

sim-golden: ## simulator outputs (aicbench, deltabench, aicsim -trace, examples) byte-identical to REF=<rev>, timings masked
	@test -n "$(REF)" || { echo "usage: make sim-golden REF=<rev>" >&2; exit 2; }
	bash ci/sim-golden.sh $(REF)

cover: ## coverage profile + per-function summary
	$(GO) test -shuffle=on -coverprofile=coverage.out -coverpkg=./... ./...
	$(GO) tool cover -func=coverage.out | tail -1

loc: ## report only, no gate: non-test Go lines outside bench/ and testdata/, per top-level package and in total
	@find . \( -path ./bench -o -name testdata -o -name '.?*' \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs wc -l | awk '$$2 != "total" { \
		n = split($$2, p, "/"); pkg = n == 2 ? "." : n == 3 ? p[2] : p[2] "/" p[3]; \
		lines[pkg] += $$1; total += $$1 } \
		END { for (k in lines) printf "%7d  %s\n", lines[k], k | "sort -k2"; close("sort -k2"); \
		printf "%7d  total\n", total }'

bench-e2e: ## the repo benchmark (bench/, BENCHMARK.json): both facades end to end, untraced then traced
	bash bench/run.sh

bench-e2e-smoke: ## vet + smoke-test the nested bench module at tiny counts, as CI runs it
	cd bench && $(GO) vet ./... && $(GO) test ./...
