# Tier-1 gate: everything must build and every test must pass. Tests
# run in shuffled order so inter-test ordering dependencies can't hide.
tier1:
	go build ./...
	go test -shuffle=on ./...

# Race hygiene for the concurrent packages: the parallel runner stack,
# the live serving path (runtime lifecycle + load-generator
# measurement: concord-load's connection readers share its record log,
# latency sketch and failure tallies), and the policy queues (cascade
# tiers + admission paths exercise them from many goroutines). Slower
# than tier1; run before merging changes to any of these.
race:
	go test -race ./internal/runner ./internal/server ./internal/figures ./internal/live ./internal/obs ./internal/shadow ./internal/bench ./internal/proto ./internal/netsrv ./internal/policy ./cmd/concord-load

# Stress for the live runtime's concurrency-critical suites — lifecycle
# tables, chaos, drain windows, sharded stealing, the identity hand-off,
# caller placement, dispatcher parking and slices that time themselves
# with every dispatcher held — repeated under the race
# detector: a lost request, a lost wake-up or a leaked goroutine shows
# as a rare interleaving, not on the first run.
live-stress:
	go test -race -count=20 -run 'Lifecycle|Chaos|Drain|Sharded|Handoff|Park|Place|SelfTimed' ./internal/live

# Stress for the connection loop's concurrency-critical tests — window
# back-pressure, dead and half-open clients, resets, fan-in, drain, the
# reader path (lockstep, pipelined, torn frames), shedding and the wire
# partition — repeated under the race detector: a write failure counted
# twice or a slot never returned shows in one shard-count row of one run,
# not on every pass.
net-stress:
	go test -race -count=20 -run 'Window|NeverReading|HalfOpen|Reset|FanIn|Drain|Lockstep|Reader|Shed|Partition' ./internal/netsrv

vet:
	go vet ./...

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

bench:
	go test -run xxx -bench . -benchmem .

# End-to-end observability smoke: builds concord-kvd and concord-load,
# boots the server with -obs -shadow, scrapes /metrics, /healthz and
# pprof, pulls a TRACE and SHADOW, asserts non-zero net-phase |OBS
# trailers, runs text -breakdown and pipelined-binary loads, and
# validates the tracedump and shadowdump written at drain.
# Out-of-process, so kept behind a build tag rather than in tier1.
obs-smoke:
	go test -tags obssmoke -run TestObsSmoke -v -timeout 120s ./internal/obs/smoke

# The hermetic gate: three scenarios whose every metric compares across
# machines (bit-identical simulator and shadow-replay quantities;
# same-repetition ratios of the live runtime). Throughput and latency
# are the repo benchmark's (benchmark/run.sh), allocation floors are
# tier-1 tests. bench-json is the full run, into the gitignored
# bench-out/ scratch directory; to refresh the checked-in baselines,
# copy the BENCH_*.json you mean to re-baseline to the repo root and
# commit them deliberately.
bench-json:
	go run ./cmd/concord-bench -reps 5 -warmup 1 -outdir bench-out

# Short-rep suite run compared against the checked-in baselines. Exits
# non-zero on a regression beyond the noise band (relative change past
# the threshold and disjoint confidence intervals). A run step plus a
# compare step so CI can call the two separately (the compare is
# advisory on pull requests, the run is not) without re-typing either
# command list.
bench-smoke: bench-smoke-run bench-smoke-compare

bench-smoke-run:
	go run ./cmd/concord-bench -short -scenarios core,live_regret,live_multitenant -outdir bench-out

bench-smoke-compare:
	go run ./cmd/concord-bench -compare BENCH_core.json bench-out/BENCH_core.json
	go run ./cmd/concord-bench -compare BENCH_live_regret.json bench-out/BENCH_live_regret.json
	go run ./cmd/concord-bench -compare BENCH_live_multitenant.json bench-out/BENCH_live_multitenant.json

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

.PHONY: tier1 race live-stress net-stress vet fuzz-smoke bench obs-smoke bench-json bench-smoke bench-smoke-run bench-smoke-compare bench-module results-check
