# Developer/CI entry points. `make check` is the gate: vet, formatting,
# build, and the full test suite under Go's race detector — the debugging
# phase now runs concurrent (sched worker pool, controller prefetch), so
# our own race detector's implementation is itself race-checked.

GO ?= go

.PHONY: all build test race vet fmt check cover ci bench bench-smoke examples-smoke log-check vet-mpl cache-check fusion-check absint-check serve-smoke stream-smoke emu-check graph-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrent packages (sched, race, parallel, controller) plus
# everything that rides on them, under the Go race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

check: vet fmt build race fusion-check
	@echo "check: OK"

# The checked-in profile-guided fusion table must be regenerable: the test
# re-profiles the standard workloads and diffs the result against
# internal/bytecode/fusiontable_gen.go. Refresh deliberately with
#   PPD_UPDATE_FUSION=1 $(GO) test ./internal/vm -run TestFusionTableFresh
fusion-check:
	$(GO) test -run TestFusionTableFresh ./internal/vm/
	@echo "fusion-check: OK"

# Abstract-interpretation gate: the engine's own unit suite (with
# TestAnalyzeMemoMatchesOracle, the memoized engine against the
# analyze-every-round oracle), the fuzz targets' seed corpora, the vet
# golden matrix (which pins the four absint-backed passes), the
# lockset-pruning equivalence tests, and the certificate-widened
# fused-vs-unfused byte-identity checks.
absint-check:
	$(GO) test ./internal/analysis/absint/
	$(GO) test -run 'TestVetGolden|TestVetAcceptance' ./internal/analysis/
	$(GO) test -run 'TestMaskedEquivalentToUnfiltered|TestLocksetPrunesGuardedCounter' ./internal/race/
	$(GO) test -run 'TestLogGoldenFusedVsUnfused|TestRacesFusedVsUnfused|TestFusionCoverage' ./internal/vm/
	@echo "absint-check: OK"

# Coverage profile + per-package summary. internal/obs is the metrics
# contract every phase reports through, so it carries a hard floor.
OBS_COVER_FLOOR = 80
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@obs=$$($(GO) test -cover ./internal/obs/ | awk '{for (i=1;i<=NF;i++) if ($$i ~ /%/) print $$i}' | tr -d '%' | cut -d. -f1); \
	if [ "$$obs" -lt "$(OBS_COVER_FLOOR)" ]; then \
		echo "cover: internal/obs coverage $$obs% is below the $(OBS_COVER_FLOOR)% floor"; exit 1; \
	fi; \
	echo "cover: internal/obs $$obs% (floor $(OBS_COVER_FLOOR)%)"

# Static analysis over the checked-in MPL programs, with expectations:
# the clean programs must pass `ppd vet -strict`, and the racy program
# must fail it (so a regression that silences the analyzer breaks CI too).
vet-mpl: build
	$(GO) run ./cmd/ppd vet -strict testdata/quick.mpl
	$(GO) run ./cmd/ppd vet -strict testdata/crash.mpl
	@if $(GO) run ./cmd/ppd vet -strict testdata/racy.mpl >/dev/null 2>&1; then \
		echo "vet-mpl: racy.mpl must fail vet -strict"; exit 1; \
	fi
	@echo "vet-mpl: OK"

ci: check cover bench-smoke examples-smoke log-check graph-check vet-mpl absint-check cache-check serve-smoke stream-smoke emu-check
	@echo "ci: OK"

# Logging gate, without the race detector (it inflates allocation counts):
# a logged run's allocations over the bare run stay within budget, arena
# carves have cap == len and streamed edge sets stay bounded, the logs stay
# byte-identical to the goldens (retained, streamed, fused and unfused),
# and the codec round-trips.
log-check:
	$(GO) test -run 'TestLoggedRunAllocBudget|TestLogSlicesExactCap|TestStreamedEdgeSetsBounded|TestLogGoldenByteIdentical|TestStreamedLogByteIdentical|TestLogGoldenFusedVsUnfused' ./internal/vm/
	$(GO) test -run 'TestCodec|TestStats|TestArenaChunksDouble|TestTakeExactCap' ./internal/logging/
	@echo "log-check: OK"

# Flat parallel-graph gate, without the race detector (it inflates
# allocation counts): the flat graph equals the pointer builder's on the
# corpus, forged logs build without panics or gsn-sized arrays, Build's
# allocations do not grow with the event count, Controller() allocates no
# more than the logged run it analyses, stream-mode storage stays bounded
# by the frontier (a source older than the frontier keeps its clock in
# the side slab), the deadlock report is deterministic, and the race
# sets (batch, online, masked) stay byte-identical to their oracles.
graph-check:
	$(GO) test -run 'TestFlatGraphMatchesReference|TestForgedLogBounds|TestBuildAllocsFlat|TestFigure61ParallelGraph|TestGraphString|TestDeadlockReportDeterministic' ./internal/parallel/
	$(GO) test -run 'TestControllerAllocBudget' .
	$(GO) test -run 'TestStreamLiveStateBounded|TestStreamOldSourceOutlivesCompaction|TestOnlineRacesByteIdentical|FuzzStreamBatches' ./internal/stream/
	$(GO) test -run 'TestDetectorsEquivalence|TestMaskedEquivalentToUnfiltered' ./internal/race/
	@echo "graph-check: OK"

# Every example program must run to a zero exit: they drive the public
# packages end to end and otherwise rot unnoticed.
examples-smoke: build
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || { echo "examples-smoke: $$d failed"; exit 1; }; \
	done
	@echo "examples-smoke: OK"

# Debugging-phase fast-path gate: the pooled fast-dispatch emulation must
# be byte-identical to the fresh-VM generic oracle across the golden
# matrix (fused and unfused), pooled contexts must actually recycle,
# checkpointed ReplayTo must equal the from-scratch fold at every record
# boundary, and a short perfbench inspect run must drive pooled emulation
# and checkpointed ReplayTo end to end with every answer checked against
# its reference (perfbench prints {"correct":true,...} last only then).
emu-check: build
	$(GO) test -run 'TestEmuDispatchByteIdentical|TestPoolReuseObservable|TestEmulateIntoRecycles|TestEmulateConcurrentWidths' ./internal/emulation/
	$(GO) test -run 'TestReplayTo' ./internal/controller/
	bash perfbench/run.sh --workload inspect --seed 1 --seconds 1 | tail -1 | grep -q '^{"correct":true'
	@echo "emu-check: OK"

# Online-pipeline gate: a live monitored run end-to-end (ppd watch), the
# early-abort path (run -first-race must flag the racy program with a
# nonzero exit), and the oracle-equivalence golden test.
stream-smoke: build
	$(GO) run ./cmd/ppd watch -quantum 1 testdata/racy.mpl
	@if $(GO) run ./cmd/ppd run -first-race -quantum 1 testdata/racy.mpl >/dev/null 2>&1; then \
		echo "stream-smoke: run -first-race must exit nonzero on racy.mpl"; exit 1; \
	fi
	$(GO) test -run TestOnlineRacesByteIdentical ./internal/stream/
	@echo "stream-smoke: OK"

# Daemon liveness gate: start `ppd serve` on an ephemeral port, drive one
# session through the whole HTTP surface (create → races → flowback →
# what-if → metrics → delete), and shut down cleanly.
serve-smoke: build
	$(GO) run ./cmd/ppd serve -smoke
	@echo "serve-smoke: OK"

bench:
	$(GO) test -bench=. -benchmem .

# One iteration of every benchmark: catches benchmarks that panic or rot
# without paying for stable timings.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Cache correctness gate: a warm cached compile must be observationally
# identical to a fresh one (execution log bytes, program output, vet
# diagnostics, race reports), answer every debugging-phase question from
# its persisted statement table without hydrating (in process and over
# HTTP), build flowback graphs equal to the reference builder's, the
# parallel pipeline byte-identical to the sequential one, and the codec a
# lossless fixed point that turns forged tables into clean misses.
cache-check:
	$(GO) test -run 'TestCacheColdWarmIdentical|TestCacheWarmDebugging|TestCacheEnvVar|TestQuestionsNeverHydrate' .
	$(GO) test -run 'TestSessionQuestionsNeverHydrate' ./internal/server/
	$(GO) test -run 'TestBuilderMatchesReference' ./internal/dynpdg/
	$(GO) test -run 'TestParallelByteIdentical|TestCompileCachedColdWarm|TestCachedStmtTableMatchesFresh' ./internal/compile/
	$(GO) test -run 'TestCodec|TestCache|TestTableCodec|FuzzArtifactsDecode' ./internal/progdb/
	@echo "cache-check: OK"
