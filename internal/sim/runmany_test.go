package sim

// Tests for the multi-run front of the SSA engine: lanes of a block
// against one-lane runs of the same seed, ragged lane retirement,
// worker-count invariance, and the RunMany routing rules (laneable
// grouping, single-run fallback, per-run error recording). The golden
// trajectories every width is held to are in golden_test.go.

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/batch"
	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// tracesBitEqual fails the test unless the two traces agree bit for bit in
// every sample time and every concentration.
func tracesBitEqual(t *testing.T, label string, want, got *trace.Trace) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("%s: nil trace (want %v, got %v)", label, want != nil, got != nil)
	}
	if len(want.T) != len(got.T) {
		t.Fatalf("%s: %d vs %d samples", label, len(want.T), len(got.T))
	}
	for i := range want.T {
		if math.Float64bits(want.T[i]) != math.Float64bits(got.T[i]) {
			t.Fatalf("%s: sample %d time %v vs %v", label, i, want.T[i], got.T[i])
		}
		for j := range want.Rows[i] {
			wb, gb := math.Float64bits(want.Rows[i][j]), math.Float64bits(got.Rows[i][j])
			if wb != gb {
				t.Fatalf("%s: sample %d species %s: %v (%#x) vs %v (%#x)",
					label, i, want.Names[j], want.Rows[i][j], wb, got.Rows[i][j], gb)
			}
		}
	}
}

// TestEnsembleFinalsOnlyMatchesTraceMode asserts that the finals-only fast
// path changes no arithmetic: final states agree bit for bit with the
// trace-mode ensemble.
func TestEnsembleFinalsOnlyMatchesTraceMode(t *testing.T) {
	n := chainNet(t, 40)
	bc := BatchConfig{
		Base: Config{Method: SSA, Rates: Rates{Fast: 50, Slow: 1}, TEnd: 5, Unit: 40, Seed: 7},
		Runs: 5, Lanes: 4,
	}
	full, err := RunMany(context.Background(), n, bc)
	if err != nil {
		t.Fatal(err)
	}
	bc.FinalsOnly = true
	fin, err := RunMany(context.Background(), n, bc)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Traces != nil {
		for _, tr := range fin.Traces {
			if tr != nil {
				t.Fatal("finals-only ensemble materialized a trace")
			}
		}
	}
	for i := range full.Finals {
		for j := range full.Finals[i] {
			fb, gb := math.Float64bits(full.Finals[i][j]), math.Float64bits(fin.Finals[i][j])
			if fb != gb {
				t.Fatalf("run %d species %s: trace-mode %v vs finals-only %v",
					i, full.Names[j], full.Finals[i][j], fin.Finals[i][j])
			}
		}
	}
}

// branchingNet is a supercritical birth-death process started from a single
// molecule: about half of all runs go extinct after a handful of firings
// while the survivors grow exponentially and fire tens of thousands of
// times. That spread is what makes it the ragged-retirement fixture: lanes
// of one block retire many macro passes apart.
func branchingNet(tb testing.TB) *crn.Network {
	tb.Helper()
	n := crn.NewNetwork()
	n.R("birth", map[string]int{"X": 1}, map[string]int{"X": 2}, crn.Fast)
	n.R("death", map[string]int{"X": 1}, nil, crn.Slow)
	if err := n.SetInit("X", 1); err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestEnsembleRaggedRetirement runs a block whose lanes finish at wildly
// different firing counts and asserts (a) every lane still bit-matches a
// one-lane Run of its seed and (b) the occupancy counters actually recorded
// partial passes (retired lanes stop consuming slots).
func TestEnsembleRaggedRetirement(t *testing.T) {
	n := branchingNet(t)
	var stats kernel.Stats
	base := Config{Method: SSA, Rates: Rates{Fast: 2, Slow: 1}, TEnd: 9, Unit: 1,
		SampleEvery: 1, Seed: 4, Kernel: &stats}
	const runs = 8
	ens, err := RunMany(context.Background(), n, BatchConfig{Base: base, Runs: runs, Lanes: runs})
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.Err(); err != nil {
		t.Fatal(err)
	}
	extinct, survived := 0, 0
	xcol, _ := ens.Index("X")
	for i := 0; i < runs; i++ {
		cfg := base
		cfg.Kernel = nil
		cfg.Seed = batch.DeriveSeed(base.Seed, i)
		ref, err := Run(context.Background(), n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tracesBitEqual(t, "ragged run", ref, ens.Traces[i])
		if ens.Finals[i][xcol] == 0 {
			extinct++
		} else {
			survived++
		}
	}
	if extinct == 0 || survived == 0 {
		t.Fatalf("fixture lost its raggedness: %d extinct, %d survived (retune seeds)", extinct, survived)
	}
	if stats.EnsembleBlocks == 0 || stats.EnsemblePasses == 0 {
		t.Fatalf("ensemble counters not recorded: %+v", stats)
	}
	if stats.LaneSteps >= stats.LaneSlots {
		t.Fatalf("occupancy %.3f not < 1: lanes retired together (LaneSteps=%d LaneSlots=%d)",
			stats.Occupancy(), stats.LaneSteps, stats.LaneSlots)
	}
}

// TestRunManyWorkerInvariance asserts the worker pool changes scheduling
// only: the ensemble's results are bit-identical whether blocks run inline
// or fanned out over workers.
func TestRunManyWorkerInvariance(t *testing.T) {
	n := chainNet(t, 40)
	bc := BatchConfig{
		Base: Config{Method: SSA, Rates: Rates{Fast: 50, Slow: 1}, TEnd: 5, Unit: 40, Seed: 11},
		Runs: 6, Lanes: 2,
	}
	inline, err := RunMany(context.Background(), n, bc)
	if err != nil {
		t.Fatal(err)
	}
	bc.Workers = 3
	pooled, err := RunMany(context.Background(), n, bc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inline.Traces {
		tracesBitEqual(t, "worker invariance", inline.Traces[i], pooled.Traces[i])
	}
}

// TestRunManyScalarFallback routes runs that may not share a block (ODE,
// observed SSA runs) through Run one at a time and checks they share the
// batch correctly.
func TestRunManyScalarFallback(t *testing.T) {
	n := chainNet(t, 12)
	base := Config{Rates: Rates{Fast: 50, Slow: 1}, TEnd: 2}
	ens, err := RunMany(context.Background(), n, BatchConfig{Base: base, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(context.Background(), n, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tracesBitEqual(t, "ode fallback", ref, ens.Traces[i])
	}

	// An observer disqualifies laning but the run must still execute, with
	// the observer attached.
	var col countingObserver
	calls := 0
	ens, err = RunMany(context.Background(), n, BatchConfig{
		Base: Config{Method: SSA, Rates: Rates{Fast: 50, Slow: 1}, TEnd: 2, Unit: 20, Obs: &col},
		Runs: 2,
		OnResult: func(i int, tr *trace.Trace, err error) {
			calls++
			if err != nil {
				t.Errorf("run %d: %v", i, err)
			}
			if tr == nil {
				t.Errorf("run %d: nil trace", i)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.Err(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("OnResult called %d times, want 2", calls)
	}
	if col.starts != 2 || col.ends != 2 {
		t.Fatalf("observer saw %d starts / %d ends, want 2/2", col.starts, col.ends)
	}
}

// countingObserver tallies run boundaries; any observer keeps a run out of
// shared blocks, so this also exercises the single-run fallback.
type countingObserver struct {
	obs.Base
	starts, ends int
}

func (c *countingObserver) OnSimStart(obs.SimStart) { c.starts++ }
func (c *countingObserver) OnSimEnd(obs.SimEnd)     { c.ends++ }

// TestRunManyExplicitSeeds pins the seed-selection rule: explicit Seeds win
// over derivation, and each lane uses exactly its listed seed.
func TestRunManyExplicitSeeds(t *testing.T) {
	n := chainNet(t, 40)
	base := Config{Method: SSA, Rates: Rates{Fast: 50, Slow: 1}, TEnd: 5, Unit: 40}
	seeds := []int64{3, 1, 3} // duplicates allowed: identical streams
	ens, err := RunMany(context.Background(), n, BatchConfig{Base: base, Seeds: seeds, Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		cfg := base
		cfg.Seed = s
		ref, err := Run(context.Background(), n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tracesBitEqual(t, "explicit seed", ref, ens.Traces[i])
	}
	tracesBitEqual(t, "duplicate seeds", ens.Traces[0], ens.Traces[2])
}

// TestRunManyCancellation asserts a cancelled context fails the batch with
// a wrapped context error and marks every unfinished run's slot.
func TestRunManyCancellation(t *testing.T) {
	n := chainNet(t, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ens, err := RunMany(ctx, n, BatchConfig{
		Base: Config{Method: SSA, Rates: Rates{Fast: 50, Slow: 1}, TEnd: 5, Unit: 40},
		Runs: 4,
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := 0; i < 4; i++ {
		if ens.Errs[i] == nil {
			t.Fatalf("run %d has no error after cancellation", i)
		}
	}
	if ens.OK() != 0 {
		t.Fatalf("%d runs reported OK after pre-cancelled start", ens.OK())
	}
}

// TestRunManyValidation covers the batch-level argument checks.
func TestRunManyValidation(t *testing.T) {
	n := chainNet(t, 12)
	if _, err := RunMany(context.Background(), n, BatchConfig{Base: Config{TEnd: 1}}); err == nil {
		t.Fatal("zero runs accepted")
	}
	if _, err := RunMany(context.Background(), n, BatchConfig{
		Base: Config{TEnd: 1}, Runs: 3, Seeds: []int64{1, 2},
	}); err == nil {
		t.Fatal("mismatched seed count accepted")
	}
	var cfgErr *ConfigError
	_, err := RunMany(context.Background(), n, BatchConfig{Base: Config{TEnd: -1}, Runs: 2})
	if !errors.As(err, &cfgErr) {
		t.Fatalf("err = %v, want *ConfigError", err)
	}
}

// TestRunManyMetrics checks the run-level metric families laned execution
// reports: one sim_runs_total increment per run even when runs share a
// block, plus the ensemble lane-occupancy counters.
func TestRunManyMetrics(t *testing.T) {
	n := chainNet(t, 40)
	reg := obs.NewRegistry()
	_, err := RunMany(context.Background(), n, BatchConfig{
		Base:    Config{Method: SSA, Rates: Rates{Fast: 50, Slow: 1}, TEnd: 5, Unit: 40, Seed: 5},
		Runs:    5,
		Lanes:   4,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	sumPrefix := func(prefix string) float64 {
		total := 0.0
		for name, v := range snap {
			if name == prefix || strings.HasPrefix(name, prefix+"{") {
				total += v
			}
		}
		return total
	}
	if got := sumPrefix("sim_runs_total"); got != 5 {
		t.Fatalf("sim_runs_total = %v, want 5", got)
	}
	if got := sumPrefix("kernel_ensemble_blocks_total"); got < 2 {
		t.Fatalf("kernel_ensemble_blocks_total = %v, want >= 2 (5 runs over 4 lanes)", got)
	}
	if sumPrefix("kernel_ensemble_lane_slots_total") < sumPrefix("kernel_ensemble_lane_steps_total") {
		t.Fatalf("lane slots %v < lane steps %v", sumPrefix("kernel_ensemble_lane_slots_total"),
			sumPrefix("kernel_ensemble_lane_steps_total"))
	}
}

// TestRunManyMetricsLive checks that a pooled run's counters reach Metrics
// as the run ends, not when the batch drains: by the time OnResult reports
// the k-th completed run, sim_runs_total already counts at least k runs.
func TestRunManyMetricsLive(t *testing.T) {
	n := chainNet(t, 12)
	key := obs.Label("sim_runs_total", "sim", "ode")
	for _, workers := range []int{1, 2} {
		reg := obs.NewRegistry()
		var (
			mu   sync.Mutex
			done int
		)
		_, err := RunMany(context.Background(), n, BatchConfig{
			Base:    Config{Rates: Rates{Fast: 50, Slow: 1}, TEnd: 2},
			Runs:    3,
			Workers: workers,
			Metrics: reg,
			OnResult: func(i int, _ *trace.Trace, err error) {
				if err != nil {
					t.Errorf("run %d: %v", i, err)
				}
				mu.Lock()
				defer mu.Unlock()
				done++
				if got := reg.Snapshot()[key]; got < float64(done) {
					t.Errorf("workers=%d: %s = %g at completed run %d", workers, key, got, done)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Snapshot()[key]; got != 3 {
			t.Fatalf("workers=%d: %s = %g after RunMany, want 3", workers, key, got)
		}
	}
}
