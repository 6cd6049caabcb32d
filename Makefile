# Developer entry points. Everything here is plain go tooling — no
# external dependencies.

GO ?= go

.PHONY: build test test-race bench bench-check vet fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# hsnoc alone takes ≈11 min under -race on a 2-core host, past go
# test's 10-minute default.
test-race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# bench runs the repo's one benchmark (benchmark/README.md): every
# workload in a fresh child process, results in benchmark/out/.
bench:
	$(GO) run ./benchmark -seed 1

# bench-check adds the full-strength verification gate and the traced
# per-layer pass; this is what CI runs.
bench-check:
	$(GO) run ./benchmark -seed 1 -check -trace
