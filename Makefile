# Developer entry points. Everything here is plain go tooling — no
# external dependencies.

GO ?= go

.PHONY: build test test-race bench bench-check vet fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

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
