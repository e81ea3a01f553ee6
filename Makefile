# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Pinned tool versions, so CI and local runs install identical bits.
# They live here rather than in a tools.go: the module graph must stay
# buildable offline, so tool dependencies cannot enter go.mod/go.sum.
# XTOOLS_VERSION is the golang.org/x/tools release to adopt if
# internal/lint ever migrates from its stdlib-only go/analysis clone to
# the upstream framework (see docs/LINTING.md).
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3
XTOOLS_VERSION      ?= v0.24.0

LINT_TOOL := bin/loopschedlint

.PHONY: all build vet test race fuzz bench bench-json experiments baseline check-baseline clean \
	lint lint-tool lint-json lint-diff escape-check fmt-check staticcheck govulncheck

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint-tool builds the domain linter and prints its absolute path, for
# use as `go vet -vettool=$$(make -s lint-tool) ./...`.
lint-tool:
	@$(GO) build -o $(LINT_TOOL) ./cmd/loopschedlint
	@echo $(abspath $(LINT_TOOL))

# lint runs the loopsched analyzer suite (docs/LINTING.md) through the
# go vet driver, which caches per-package results.
lint:
	$(GO) build -o $(LINT_TOOL) ./cmd/loopschedlint
	$(GO) vet -vettool=$(abspath $(LINT_TOOL)) ./...

# lint-json writes machine-readable diagnostics to lint-report.json
# (uploaded as a CI artifact); it reports but never fails.
lint-json:
	$(GO) build -o $(LINT_TOOL) ./cmd/loopschedlint
	./$(LINT_TOOL) -json ./... > lint-report.json || true
	@cat lint-report.json

# lint-diff is the CI gate: it fails only on findings not recorded in
# the checked-in baseline (lint-baseline.json, kept empty — fix or
# suppress findings rather than baselining them), and writes both the
# JSON and SARIF artifacts CI uploads either way.
lint-diff:
	$(GO) build -o $(LINT_TOOL) ./cmd/loopschedlint
	./$(LINT_TOOL) -json -sarif lint-report.sarif -baseline lint-baseline.json ./... > lint-report.json

# escape-check cross-checks the hotalloc analyzer against the
# compiler's own escape analysis (-gcflags=-m) on every
# //lint:loopsched-hotpath function; see cmd/escapecheck.
escape-check:
	$(GO) run ./cmd/escapecheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

staticcheck:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	staticcheck ./...

govulncheck:
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	govulncheck ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/exec/ ./internal/steal/ ./internal/mp/ ./internal/hier/ ./internal/telemetry/ ./internal/service/ .

fuzz:
	$(GO) test -fuzz FuzzSchemeCoverage -fuzztime 30s ./internal/sched/
	$(GO) test -fuzz FuzzWeightedCoverage -fuzztime 30s ./internal/sched/
	$(GO) test -fuzz FuzzDecodeRequest -fuzztime 30s ./internal/mp/
	$(GO) test -fuzz FuzzWireDecode -fuzztime 30s ./internal/wire/

bench:
	$(GO) test -bench=. -benchmem .

# bench-json runs the protocol benchmark matrices and writes both the
# raw benchstat-compatible text and the parsed JSON artifacts that CI
# archives: the wire protocol (binary codec × credit window,
# docs/PROTOCOL.md → BENCH_wire.json), the local work-stealing engine
# (× worker count, docs/LOCAL.md → BENCH_local.json), the multi-tenant
# scheduler daemon (job streams × fleet/tenant mix, docs/SERVICE.md →
# BENCH_service.json with jobs/s and chunks/s), and the
# scheduling-step ledger (in-process fetch-add contention plus
# master-path vs one-sided loopback, docs/LEDGER.md →
# BENCH_ledger.json).
bench-json:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench BenchmarkRPCPipeline -benchmem -count=1 . | tee bench_wire.txt
	./bin/benchjson -only BenchmarkRPCPipeline -o BENCH_wire.json < bench_wire.txt
	$(GO) test -run '^$$' -bench BenchmarkLocalEngine -benchmem -count=1 . | tee bench_local.txt
	./bin/benchjson -only BenchmarkLocalEngine -o BENCH_local.json < bench_local.txt
	$(GO) test -run '^$$' -bench BenchmarkScheduler -benchmem -count=1 . | tee bench_service.txt
	./bin/benchjson -only BenchmarkScheduler -o BENCH_service.json < bench_service.txt
	$(GO) test -run '^$$' -bench BenchmarkLedger -benchmem -count=1 . | tee bench_ledger.txt
	./bin/benchjson -only BenchmarkLedger -o BENCH_ledger.json < bench_ledger.txt

experiments:
	$(GO) run ./cmd/experiments

baseline:
	$(GO) run ./cmd/experiments -save-baseline results/baseline-default.json

check-baseline:
	$(GO) run ./cmd/experiments -check-baseline results/baseline-default.json

clean:
	$(GO) clean -testcache
