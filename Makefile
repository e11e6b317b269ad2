# Tier-1 gate: everything must build and every test must pass. Tests
# run in shuffled order so inter-test ordering dependencies can't hide.
tier1:
	go build ./...
	go test -shuffle=on ./...

# Race hygiene for the concurrent packages: the parallel runner stack,
# the live serving path (runtime lifecycle + load-generator
# measurement: concord-load's connection readers share its record log,
# latency sketch and failure tallies; concord-kvd's completion observer
# runs on completing executors and connection readers at once), the
# policy queues (cascade tiers + admission paths exercise them from many
# goroutines) and the kv store (connection readers and workers share
# it). Slower than tier1; run before merging changes to any of these.
# -count=1: a repeated run tests again instead of reading the test cache.
race:
	go test -race -count=1 ./internal/runner ./internal/server ./internal/figures ./internal/live ./internal/obs ./internal/shadow ./internal/proto ./internal/netsrv ./internal/policy ./internal/kv ./cmd/concord-load ./cmd/concord-kvd

# Stress for the live runtime's concurrency-critical suites — lifecycle
# tables, chaos, drain windows, the identity hand-off, caller
# placement, dispatcher parking, slices that time themselves with the
# dispatcher held, the work-conserving dispatcher's rule, the
# timesharing hand-off on a core-scarce server and the trace's agreement
# with Response.Breakdown — repeated under the race detector: a lost
# request, a lost wake-up or a leaked goroutine shows as a rare
# interleaving, not on the first run.
live-stress:
	go test -race -count=20 -run 'Lifecycle|Chaos|Drain|Handoff|Park|Place|SelfTimed|Conserv|Timeshare|TraceAgrees' ./internal/live

# Stress for the connection loop's concurrency-critical tests — window
# back-pressure, dead and half-open clients, resets, fan-in, drain, the
# reader path (lockstep, pipelined, torn frames), shedding, the wire
# partition and the idle deadline — repeated under the race detector: a
# write failure counted twice or a slot never returned shows in one
# row of one run, not on every pass.
net-stress:
	go test -race -count=20 -run 'Window|NeverReading|HalfOpen|Reset|FanIn|Drain|Lockstep|Reader|Shed|Partition|Idle' ./internal/netsrv

# go vet, then gofmt: every tracked Go file (the benchmark module's too)
# must be formatted as gofmt would write it; the target prints those
# that are not and fails.
vet:
	go vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; \
	fi

# internal/live reads the TSC through amd64 assembly; every other
# architecture builds its monotonic-clock fallback (tsc_other.go). This
# vets the whole tree for arm64, which needs no download, then compiles
# and links it: the commands and internal/live's test binary, so the
# linker checks internal/live's go:linkname pulls (procPin, procUnpin),
# which vet never compiles. A change that breaks the fallback fails
# here and not on someone's ARM host.
cross:
	GOARCH=arm64 go vet ./...
	GOARCH=arm64 go build ./...
	GOARCH=arm64 go test -c -o /dev/null ./internal/live

# Each native fuzz target for a short fixed budget. Their seed corpora
# (testdata/fuzz/) already run as plain tests in tier1; this looks past
# them. `go test -fuzz` takes one target and one package per run; a
# failing input is written under the package's testdata/fuzz/ — check it
# in with the fix. -fuzzminimizetime is cut from its 60s default because
# the engine otherwise spends most of a 10s budget shrinking its first
# new-coverage input.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzRequestRoundTrip$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzBinaryCodec$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/netsrv
	go test -run '^$$' -fuzz '^FuzzTextCodec$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/netsrv
	go test -run '^$$' -fuzz '^FuzzStore$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/kv

bench:
	go test -run xxx -bench . -benchmem .

# The placed path's cycle ledger (EXPERIMENTS.md): what each hop of an
# untraced placed Do costs in ns and TSC ticks, the hops' sum and its
# residual against the whole path, as a markdown table (≈ 2 min). A
# record, not a gate: nothing asserts a duration.
ledger:
	bash scripts/ledger.sh

# End-to-end observability smoke: builds concord-kvd and concord-load,
# boots the server with -obs -shadow, scrapes /metrics, /healthz and
# pprof, pulls a TRACE and SHADOW, asserts non-zero net-phase |OBS
# trailers, runs text -breakdown and pipelined-binary loads, and
# validates the tracedump and shadowdump written at drain.
# Out-of-process, so kept behind a build tag rather than in tier1.
obs-smoke:
	go test -tags obssmoke -run TestObsSmoke -v -timeout 120s ./internal/obs/smoke

# The repo benchmark (BENCHMARK.json) is its own module under
# benchmark/, so `go build ./... && go test ./...` never compiles it.
# This target does: it fails when an internal/ API the benchmark imports
# (obs.QuantileSketch, obs.NewTailTracker, netsrv.Options, live.Options,
# ...) changes shape.
bench-module:
	cd benchmark && go vet . && go test .

# results_full.tsv is every figure at full fidelity, and a function of
# the code alone (default seed, bit-identical at any -parallel): this
# regenerates it (minutes, all cores) and fails on any difference. After a
# deliberate model change, refresh the file and results_timing.log with
#   go run ./cmd/concordsim -fig all -time -parallel 0 > results_full.tsv 2> results_timing.log
results-check:
	go run ./cmd/concordsim -fig all -parallel 0 | diff - results_full.tsv

.PHONY: tier1 race live-stress net-stress vet cross fuzz-smoke bench ledger obs-smoke bench-module results-check
