#!/bin/sh
# Repository gate: static checks plus the full test suite under the race
# detector (the obs registry tests exercise concurrent metric writes). The
# FSM-machine tests multiply badly under -race, hence the generous timeout.
set -eux
cd "$(dirname "$0")/.."
go vet ./...

# Formatting gate: gofmt must have nothing to rewrite in the main module's
# Go files.
unformatted=$(gofmt -l internal cmd examples *.go)
if [ -n "$unformatted" ]; then
  echo "check.sh: gofmt would rewrite: $unformatted" >&2
  exit 1
fi

# The old sequential entry points (the per-method Run wrappers) are gone:
# single runs go through the context-aware sim.Run, multi-run workloads
# through sim.RunMany. Nothing — tests and the sim package included — may
# reintroduce them.
if grep -rnE '\bRun(ODE|SSA|TauLeap)\(' internal/ cmd/ examples/ \
    --include='*.go'; then
  echo 'check.sh: removed per-method Run wrapper referenced (use sim.Run / sim.RunMany)' >&2
  exit 1
fi

# The integrator stays free of the instrumentation layer: observers see a
# run's start and end from the sim layer, never an integrator step, so
# internal/ode must not depend on internal/obs.
if go list -deps ./internal/ode | grep -qx 'repro/internal/obs'; then
  echo 'check.sh: internal/ode depends on repro/internal/obs' >&2
  exit 1
fi

# One stiffness detector: the automatic solver's handoff is the
# eigenvalue-and-cost test in ode.Integrate. The rejection-window heuristic
# it replaced must not come back beside it.
if grep -rnE 'stiffWindow|stiffRejects|stiffHFrac' internal/ode/; then
  echo 'check.sh: rejection-window stiffness heuristic reintroduced in internal/ode' >&2
  exit 1
fi

# One registry, written in place: the batch pool writes its metrics and
# every run's observer families straight into the caller's registry, and an
# experiment reports through its Metrics registry alone. Per-worker registry
# shards, the Merge that folded them in after the drain, and a second
# observer knob on exper.Config must not come back.
if grep -rnE 'func \(r \*Registry\) Merge' internal/ --include='*.go' ||
    grep -rnw 'shards' internal/batch/ --include='*.go' ||
    awk '/^type Config struct/,/^}/' internal/exper/exper.go | grep -nE '^\s+Obs\b'; then
  echo 'check.sh: registry shard merge or a second exper.Config observer reintroduced' >&2
  exit 1
fi

# The batch engine, the HTTP server and the span tracer are the repo's
# concurrency hot spots: run them twice under the race detector before
# everything else so scheduling-order bugs surface fast. The kernel package
# joins them doubled because both simulators lean on its compiled networks
# (the ODE's derivative and Jacobian, the SSA's propensities and Fenwick
# index) — a latent bug there corrupts both methods at once.
go test -race -count=2 -timeout 10m ./internal/sim/kernel/
# The Rosenbrock integrator owns mutable factor/workspace buffers reused
# across steps; doubled -race guards the stiff path the same way (its tests
# include the reordered-LU-vs-dense property sweep over synthesized
# networks).
go test -race -count=2 -timeout 10m ./internal/ode/
# Species numbering must not follow map iteration order. When it did, the
# species order changed from build to build, E12's finals moved in the last
# bits, and its parallel-vs-sequential golden comparison failed about one
# run in six.
go test -count=20 -run 'TestGridExperimentsParallelGolden/E12' ./internal/exper/
# The serving benchmark's determinism test: one seed sends the same request
# bytes, gets the same reply bytes and counts the same work (~17 s).
(cd perfbench && go test ./...)
# The SoA ensemble engine is the one exact-SSA engine: sim.Run's one-lane
# blocks (tight and hooked) and RunMany's shared blocks, moved under worker
# pools. Doubled -race over the block engine and over the sim-layer SSA,
# golden bit-identity, RunMany, hooked-pass and firing-budget tests guards
# the lane bookkeeping.
go test -race -count=2 -timeout 10m ./internal/sim/ensemble/
go test -race -count=2 -timeout 15m -run 'SSA|Ensemble|RunMany|Golden|KernelStats|Budget' ./internal/sim/
go test -race -count=2 -timeout 10m ./internal/batch/
go test -race -count=2 -timeout 10m ./internal/server/
go test -race -count=2 -timeout 10m ./internal/obs/span/
# Pool workers and HTTP handlers write one obs.Registry at the same time.
go test -race -count=2 -timeout 10m ./internal/obs/

# SSE end-to-end smoke: the live-streaming and tracing tests drive a real
# HTTP server, so scheduling races between publisher, broker and subscriber
# only show up here.
go test -race -timeout 10m -run 'SSE|Stream|Events|Tracez' ./internal/server/

# Debug-surface smoke: pprof, tracez and /metrics against live listeners —
# the daemon-level end-to-end test binds both the API and the -debug-addr
# listener and asserts resource attribution lands in /metrics.
go test -race -timeout 10m -run 'DebugHandler' ./internal/server/
go test -race -timeout 10m -run 'EndToEnd|Debug' ./cmd/crnserved/

# Benchmark smoke: one iteration of every benchmark. Catches bit-rot in the
# benchmark code (and in the scripts/bench.sh regression set) without paying
# full measurement time; real numbers come from scripts/bench.sh.
go test -run=NONE -bench=. -benchtime=1x -timeout 20m .
go test -run=NONE -bench=. -benchtime=1x -timeout 10m ./internal/sim/kernel/
# Ensemble bench smoke: one iteration of the multi-run engine benchmarks the
# BENCH_PR7.json gate is computed from, so the gate set itself cannot rot.
go test -run=NONE -bench 'EnsembleRing|SSARingSweepPerRun' -benchtime=1x -timeout 10m .
# Stiff-solver bench smoke: one iteration of the BENCH_PR10.json gate set
# (explicit vs stiff vs auto on the 458-reaction ring at fast/slow = 30000).
go test -run=NONE -bench 'ODERing' -benchtime=1x -timeout 10m .

# Differential fuzz smoke: drawn networks at drawn ratios and horizons
# through all three solvers (the checked-in corpus replays in every plain
# go test).
go test -run '^$' -fuzz '^FuzzSolverFinals$' -fuzztime 20s .

# The rate-law, derivative and Jacobian hot paths raise concentrations by
# binary exponentiation (kernel.PowInt); a math.Pow call creeping into the
# kernel package would silently cost ~6x per general-law evaluation.
# (Comments may mention it; an actual call site always has the paren.)
if grep -rn 'math\.Pow(' internal/sim/kernel/ --include='*.go' \
    --exclude='*_test.go'; then
  echo 'check.sh: math.Pow call on a kernel hot path (use PowInt)' >&2
  exit 1
fi

go test -race -timeout 45m ./...
