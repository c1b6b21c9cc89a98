# Development targets. The repo is stdlib-only; everything below is
# plain go tool invocations.

GO ?= go

.PHONY: all build test race bench-all obs-smoke agent-smoke ctl-smoke fmt lint vet verify

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector. The race-focused
# smoke tests (rl.TestTrainRaceSmoke, telemetry sink/registry
# concurrency tests) are sized to keep this tier fast.
race:
	$(GO) test -race ./...

# bench-all runs every go test benchmark in the repo (figures, micro,
# ablations). Speed is measured by `go run ./benchmark`.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# obs-smoke end-to-end checks the live observability endpoint: it runs a
# short coordsim with -obs-addr on a free port and curls /metrics,
# /snapshot, and /run during the -obs-wait hold.
obs-smoke:
	./scripts/obs_smoke.sh

# agent-smoke end-to-end checks the networked agent tier: it spawns 3
# real agentd processes, asserts the remote run's metrics are
# byte-identical to the in-process run (equivalence oracle) with nonzero
# RTT samples, then kills one agentd mid-run under an agent-kill chaos
# schedule and asserts the recovery report sees the dip.
agent-smoke:
	./scripts/agent_smoke.sh

# ctl-smoke end-to-end checks the experiment-controller tier: it starts
# cmd/ctl over a throwaway store, submits a 2-point sweep over HTTP,
# waits for it to finish, verifies every manifest artifact resolves
# through the content-addressed blob route, and asserts a recalc
# re-renders byte-identically from the stored grid log.
ctl-smoke:
	./scripts/ctl_smoke.sh

fmt:
	gofmt -l -w .

# lint fails on unformatted files (without rewriting them) and runs vet.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

# verify is the pre-merge gate: build, full suite, lint and race detector.
verify: build test lint race
