GO ?= go

# FUZZTIME bounds each fuzz target's run. ci keeps it short so the fuzz
# harness is exercised on every run; override for a longer local
# session: make fuzz-smoke FUZZTIME=5m
FUZZTIME ?= 3s

.PHONY: build vet lint lint-baseline test examples-smoke ghrpsim-smoke repro-smoke repro-check race-smoke fault-smoke fuzz-smoke golden-update daemon-smoke dist-smoke dist-scale-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs ghrplint, the in-tree interprocedural analyzer suite
# (DESIGN.md "Static analysis"): wall-clock reads in deterministic
# packages, math/rand global state, nondeterministic map iteration,
# heap allocations transitively reachable from //ghrp:hotpath roots,
# and nondeterminism flowing into identity sinks. Stdlib-only;
# diagnostics are suppressed per line with
# //ghrplint:ignore <analyzer> <reason>. The gate fails only on
# findings absent from the checked-in lint.baseline (and on baseline
# entries that went stale).
lint:
	$(GO) run ./cmd/ghrplint -json -baseline lint.baseline ./...

# lint-baseline regenerates lint.baseline from the current findings —
# run it to accept new debt deliberately, then commit the diff.
lint-baseline:
	$(GO) run ./cmd/ghrplint -write-baseline lint.baseline ./...

test:
	$(GO) test ./...

# examples-smoke runs the public-API examples and diffs what each prints
# against the expected.txt beside it, pinning that the examples — the
# root ghrpsim facade's documentation in code — keep printing the same
# numbers.
examples-smoke:
	@for ex in quickstart mobileapp heatmap serverfleet; do \
		$(GO) run ./examples/$$ex | diff -u examples/$$ex/expected.txt - || exit 1; \
	done

# ghrpsim-smoke pins the ghrpsim CLI's -analyze output, which profiles
# the I-cache accesses read from the simulator's access tap: one run
# streams a suite workload, one replays the same stream from a tracegen
# file through -trace. Two more pin the GHRP and SDBP lanes' counters
# on LS-001, whose GHRP run takes the dead paths (bypasses,
# dead-predicted evictions, dead predictions) that SS-001 never
# reaches. Each must print exactly its expected file under
# cmd/ghrpsim/testdata.
ghrpsim-smoke:
	@mkdir -p bin
	$(GO) build -o bin/ghrpsim ./cmd/ghrpsim
	$(GO) build -o bin/tracegen ./cmd/tracegen
	./bin/ghrpsim -workload SS-001 -instrs 200000 -analyze | diff -u cmd/ghrpsim/testdata/analyze.txt -
	./bin/tracegen -workload SS-001 -instrs 200000 -out bin/SS-001.trace > /dev/null
	./bin/ghrpsim -trace bin/SS-001.trace -analyze | diff -u cmd/ghrpsim/testdata/analyze-trace.txt -
	./bin/ghrpsim -workload LS-001 -instrs 1000000 | diff -u cmd/ghrpsim/testdata/ls001-ghrp.txt -
	./bin/ghrpsim -workload LS-001 -instrs 1000000 -policy SDBP | diff -u cmd/ghrpsim/testdata/ls001-sdbp.txt -

# repro-smoke pins the simulated numbers of every experiments section —
# the main figures, Fig. 2, Fig. 7, headroom, extended and every
# ablation — on a small suite: `experiments -run all -n 40 -scale 0.1`
# must print docs/experiments-smoke-output.txt exactly, apart from the
# "done in" timing line. The renderer goldens use fabricated inputs, so
# this is what catches a change to the numbers themselves in ci.
repro-smoke:
	@mkdir -p bin
	$(GO) build -o bin/experiments ./cmd/experiments
	grep -v '^done in ' docs/experiments-smoke-output.txt > bin/repro-smoke-want.txt
	./bin/experiments -run all -n 40 -scale 0.1 | grep -v '^done in ' | diff -u bin/repro-smoke-want.txt -

# repro-check is repro-smoke at paper scale: the full 662-workload
# `experiments -run all` at scale 1 against
# docs/experiments-full-output.txt, the record EXPERIMENTS.md cites. It
# takes minutes, so it stays out of ci; run it after any change to sim,
# frontend, workload, core, btb, cache or policies.
repro-check:
	@mkdir -p bin
	$(GO) build -o bin/experiments ./cmd/experiments
	grep -v '^done in ' docs/experiments-full-output.txt > bin/repro-check-want.txt
	./bin/experiments -run all | grep -v '^done in ' | diff -u bin/repro-check-want.txt -

# race-smoke runs the packages with concurrency-sensitive code — the
# suite scheduler, the observers, the result cache, the fault-injection
# harness, and the serving daemon with its e2e harness — in full under
# the race detector. The fan-out engine starts no goroutine, but every
# scheduler worker drives its own fan-out, so its package stays in the
# set. This replaced a -run regex
# that had drifted from the test inventory: a package-list run cannot
# drop newly added concurrency tests from the smoke set. (The full
# module under -race stays out of routine CI; these packages hold all
# of the goroutine coordination.)
race-smoke:
	$(GO) test -race -count=1 ./internal/sim/ ./internal/obs/ ./internal/frontend/ ./internal/resultcache/ ./internal/faultinject/ ./internal/serve/ ./internal/dist/ ./cmd/ghrpd/

# fault-smoke focuses on the suite runner's failure paths — injected
# panics, stalls, transient errors, cache corruption and keep-going
# partial results. It is a strict subset of what race-smoke now runs
# (whole packages, same -race), so ci relies on race-smoke and this
# stays as the quick focused loop for working on failure semantics.
fault-smoke:
	$(GO) test -race -run 'TestFault' ./internal/sim/
	$(GO) test -race ./internal/faultinject/

# fuzz-smoke runs each fuzz target briefly (native Go fuzzing): the
# trace format, the daemon's untrusted inputs — POST /runs bodies and
# generated-suite grids — the branch predictor against its reference
# model over fuzzed geometries, GHRP (I-cache policy and BTB adapter) and
# SDBP against reference copies of their earlier, slower code over
# fuzzed configurations, and the one-pass warm-up window against
# counting the stream first. The checked-in corpora under
# each package's testdata/fuzz also replay as ordinary test cases in
# `make test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTraceReader$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzRunRequest$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzSuiteGenValidate$$' -fuzztime $(FUZZTIME) ./internal/workload/
	$(GO) test -run '^$$' -fuzz '^FuzzPerceptronMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/perceptron/
	$(GO) test -run '^$$' -fuzz '^FuzzGHRPMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/btb/
	$(GO) test -run '^$$' -fuzz '^FuzzSDBPMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/policies/
	$(GO) test -run '^$$' -fuzz '^FuzzOnePassMatchesTwoPass$$' -fuzztime $(FUZZTIME) ./internal/frontend/

# golden-update rewrites the golden files: the renderer goldens under
# internal/sim/testdata and the daemon's run-status API document under
# internal/serve/testdata. Output changes fail `make test` until the
# goldens are regenerated here and the diff is reviewed.
golden-update:
	$(GO) test ./internal/sim/ -run TestGolden -update
	$(GO) test ./internal/serve/ -run TestGolden -update

# daemon-smoke builds and starts ghrpd on an ephemeral port, submits one
# tiny run over real HTTP, follows its SSE stream to completion, fetches
# the result and figures, and drains cleanly — the build-start-serve-
# shutdown path in one self-checking command (docs/API.md).
daemon-smoke:
	$(GO) run ./cmd/ghrpd -addr 127.0.0.1:0 -smoke

# dist-smoke is the distributed runner's crash drill: build the real
# ghrpd binary, spawn two workers through the coordinator, SIGKILL one
# of them at its first dispatched shard, and require the merged result
# to be bit-identical to a single-process run of the same suite
# (DESIGN.md §9). A second run sends explicitly named workloads, out of
# suite order, to one spawned worker and verifies it the same way.
# Exit is nonzero on any mismatch.
dist-smoke:
	@mkdir -p bin
	$(GO) build -o bin/ghrpd ./cmd/ghrpd
	$(GO) run ./cmd/ghrpdist -smoke -worker-cmd ./bin/ghrpd
	$(GO) run ./cmd/ghrpdist -workloads SM-001,LS-145,SS-070 -policies LRU,GHRP -scale 0.01 -spawn 1 -worker-cmd ./bin/ghrpd -verify -out bin/dist-named.json

# dist-scale-smoke is the scaling drill: a generated 5000-workload
# suite over two spawned workers with the coordinator's heap sampled
# throughout. It fails unless the streamed merge is bit-identical to
# the in-process reference AND peak coordinator heap stays under a
# ceiling far below what buffering every shard result would cost — the
# streaming merge's coordinator-memory guarantee, enforced in CI.
dist-scale-smoke:
	@mkdir -p bin
	$(GO) build -o bin/ghrpd ./cmd/ghrpd
	$(GO) run ./cmd/ghrpdist -scale-smoke -worker-cmd ./bin/ghrpd

ci: build vet lint test examples-smoke ghrpsim-smoke repro-smoke race-smoke fuzz-smoke daemon-smoke dist-smoke dist-scale-smoke
