# PIM-Assembler build/test/reproduction targets.

GO ?= go

# The race-detector gate covers every internal/ package by default, so a new
# package is race-tested without anyone remembering to list it. The one
# exclusion is internal/eval, whose full multi-second golden runs would be
# repeated under the detector: it runs with -short instead, which still
# exercises the harness, including the concurrent cross-engine comparison.
RACE_EXCLUDE = pimassembler/internal/eval
RACE_PKGS = $(filter-out $(RACE_EXCLUDE),$(shell $(GO) list ./internal/...))

.PHONY: all check ci fmt-check build vet test test-race fuzz-smoke bench bench-check examples-check profile reproduce clean lint lint-tools

all: check

check: fmt-check build vet test test-race

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The 32-bit build catches constant and shift overflow where code
# arithmetic meets int-sized counts.
build:
	$(GO) build ./...
	GOARCH=386 $(GO) build ./...

vet:
	$(GO) vet ./...

# The reachability gate is TestReach (reach_test.go), so it runs here: every
# internal/ package is imported by a command or bench/, and every exported
# internal/ identifier is referenced from a non-test file.
test:
	$(GO) test ./...

test-race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -short $(RACE_EXCLUDE)

# Static analysis beyond vet. staticcheck and govulncheck are pinned and
# installed by `make lint-tools` (CI does this); locally, lint runs
# whatever is on PATH and prints a notice for missing tools instead of
# failing, so the target works in offline sandboxes.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed (run 'make lint-tools'); skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed (run 'make lint-tools'); skipping"; \
	fi

# Short fuzzing pass over every fuzz target in FUZZ_PKGS (Go runs one
# target per -fuzz invocation, so this loops over `go test -list` per
# package). FUZZTIME=10s is the CI smoke budget; raise it locally for a
# real hunt.
FUZZTIME ?= 10s
FUZZ_PKGS = ./internal/genome ./internal/debruijn ./internal/kmer ./internal/correct ./internal/distshard ./internal/sched ./internal/exec

fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		targets=$$($(GO) test $$pkg -list '^Fuzz' | grep '^Fuzz'); \
		for f in $$targets; do \
			echo "fuzz $$pkg $$f ($(FUZZTIME))"; \
			$(GO) test $$pkg -run='^$$' -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) || exit 1; \
		done; \
	done

# Every Benchmark* of the root module once, writing no file: the root's
# paper-artefact and ablation benchmarks (modeled quantities) and the
# per-package micro-benchmarks execute in CI so they cannot rot. It measures
# nothing — host performance is bench/run.sh's job (`bash bench/run.sh -out
# DIR`, then `-compare`).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# CPU and heap profiles of one root benchmark, single-threaded as the
# end-to-end benchmark runs the software workloads: by default
# BenchmarkSoftwarePipeline100k (the sw_100k shape);
# PROFILE_BENCH=BenchmarkSoftwarePipelineNoisy is the sw_noisy_k32 shape,
# PROFILE_BENCH=BenchmarkSoftwarePipelineLowCoverage one dist_60k shard
# (counting is still the larger half, but the graph build and the contig
# walk are a third of it) and
# PROFILE_BENCH=BenchmarkPIMEngine the functional simulator. The test binary
# and the profiles stay under PROFILE_DIR; read them with
#   go tool pprof -top $(PROFILE_DIR)/pimassembler.test $(PROFILE_DIR)/cpu.pprof
PROFILE_DIR ?= /tmp/pimassembler-profile
PROFILE_BENCH ?= BenchmarkSoftwarePipeline100k

profile:
	@mkdir -p $(PROFILE_DIR)
	GOMAXPROCS=1 $(GO) test -run='^$$' -bench='^$(PROFILE_BENCH)$$' -benchtime=5x -benchmem \
		-o $(PROFILE_DIR)/pimassembler.test -cpuprofile $(PROFILE_DIR)/cpu.pprof -memprofile $(PROFILE_DIR)/heap.pprof .
	@echo "profiles in $(PROFILE_DIR): cpu.pprof heap.pprof (binary pimassembler.test)"

# bench/ is its own Go module (the end-to-end benchmark, BENCHMARK.json's
# command), so `go build ./...` and `go test ./...` at the root never
# compile it: vet and test it here so a signature change in a package it
# imports cannot break pimbench unseen.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every example, each of which exits non-zero when it goes wrong: throughput
# checks the simulated XNOR against the host's, assembly the pim engine's
# contigs against the software engine's, loadtest the admission budget and
# the drain. About ten seconds together.
EXAMPLES = quickstart throughput variation assembly reliability jobqueue loadtest

examples-check:
	@for e in $(EXAMPLES); do \
		echo "go run ./examples/$$e"; $(GO) run ./examples/$$e || exit 1; \
	done

# The full local gate, one-to-one with .github/workflows/ci.yml: the check
# suite (whose tests include the daemon run on the real cmd/assembled
# binary, contigs byte-compared against the real cmd/assemble binary),
# the nested bench module's vet + tests, every example, lint,
# the fuzz smoke, and one iteration of every benchmark. Keep the two in sync
# — CI must run exactly these commands.
ci:
	$(MAKE) check
	$(MAKE) bench-check
	$(MAKE) examples-check
	$(MAKE) lint
	$(MAKE) fuzz-smoke
	$(MAKE) bench

# Regenerate every paper table and figure (text + CSV for the plottable ones).
reproduce: build
	$(GO) run ./cmd/pimassembler all
	@mkdir -p out
	@for f in fig3b table1 fig9 fig10 fig11 ksweep; do \
		$(GO) run ./cmd/pimassembler -csv $$f > out/$$f.csv; \
	done
	@echo "CSV artefacts in ./out"

clean:
	rm -rf out xnor_transient.csv
