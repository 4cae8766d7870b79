package sim

// Tests for the kernel hot-path counters (Config.Kernel): the selector
// invariant that both selection modes perform identical stochastic work,
// the tight-vs-hooked SSA run accounting, and the surfacing of counters
// through the observer pipeline into a metrics registry.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim/ensemble"
	"repro/internal/sim/kernel"
)

// runSSAStats runs the chain network (~90 reactions: the Fenwick index)
// under SSA with a caller-owned stats block and returns it. With watched
// set the run carries the network's default watchers, which hook it.
func runSSAStats(t *testing.T, seed int64, o obs.Observer, watched bool) kernel.Stats {
	t.Helper()
	n := chainNet(t, 40)
	var ks kernel.Stats
	cfg := Config{
		Method: SSA, Rates: Rates{Fast: 50, Slow: 1},
		TEnd: 5, Unit: 40, Seed: seed,
		Obs: o, Kernel: &ks,
	}
	if watched {
		cfg.Watchers = AutoWatchers(n)
	}
	_, err := Run(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// TestKernelStatsSelectorInvariant pins that the Fenwick and linear
// selectors do the same stochastic work on the same seed: every firing is
// one selection, the two modes select the same number of times, and the
// exact-recompute drift schedule is identical. This is the counter-level
// companion to TestSSASelectorByteIdentical.
func TestKernelStatsSelectorInvariant(t *testing.T) {
	n := chainNet(t, 40)
	for _, seed := range []int64{1, 7, 42} {
		_, f := runForced(t, n, seed, 40, ensemble.SelFenwick)
		_, l := runForced(t, n, seed, 40, ensemble.SelLinear)
		if f.FenwickSelects == 0 {
			t.Fatalf("seed %d: fenwick run counted no selections", seed)
		}
		if f.LinearSelects != 0 || l.FenwickSelects != 0 {
			t.Fatalf("seed %d: modes cross-tallied: fenwick=%+v linear=%+v", seed, f, l)
		}
		if f.FenwickSelects != l.LinearSelects {
			t.Errorf("seed %d: %d fenwick vs %d linear selections", seed, f.FenwickSelects, l.LinearSelects)
		}
		if f.ExactRecomputes != l.ExactRecomputes {
			t.Errorf("seed %d: %d vs %d exact recomputes", seed, f.ExactRecomputes, l.ExactRecomputes)
		}
		if f.ExactRecomputes == 0 {
			t.Errorf("seed %d: no exact recomputes counted (initial build should count)", seed)
		}
	}
}

// TestKernelStatsLoopAccounting pins how each SSA configuration is
// counted: without events and watchers the run takes the tight loop, with
// or without an observer; watchers hook the run (FullLoops). Neither an
// observer nor Config.Kernel hooks a run.
func TestKernelStatsLoopAccounting(t *testing.T) {
	tight := runSSAStats(t, 1, nil, false)
	if tight.TightLoops != 1 || tight.FullLoops != 0 {
		t.Errorf("unobserved run: tight=%d full=%d, want 1/0", tight.TightLoops, tight.FullLoops)
	}
	reg := obs.NewRegistry()
	observed := runSSAStats(t, 1, obs.NewRegistryObserver(reg), false)
	if observed != tight {
		t.Errorf("observed run counted %+v, unobserved run %+v", observed, tight)
	}
	full := runSSAStats(t, 1, nil, true)
	if full.TightLoops != 0 || full.FullLoops != 1 {
		t.Errorf("watched run: tight=%d full=%d, want 0/1", full.TightLoops, full.FullLoops)
	}
	// Same seed, same stochastic process: hooks change bookkeeping only,
	// never selections.
	if tight.FenwickSelects != full.FenwickSelects {
		t.Errorf("tight loop selected %d times, hooked run %d", tight.FenwickSelects, full.FenwickSelects)
	}
}

// TestKernelStatsSweepAccumulation: reusing one stats block across runs
// accumulates, which is how batch sweeps total their kernel work.
func TestKernelStatsSweepAccumulation(t *testing.T) {
	n := chainNet(t, 40)
	var ks kernel.Stats
	var perRun uint64
	for i := 0; i < 3; i++ {
		before := ks.Selects()
		_, err := Run(context.Background(), n, Config{
			Method: SSA, Rates: Rates{Fast: 50, Slow: 1},
			TEnd: 5, Unit: 40, Seed: 9, Kernel: &ks,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := ks.Selects() - before
		if d == 0 {
			t.Fatalf("run %d added no selections", i)
		}
		if i == 0 {
			perRun = d
		} else if d != perRun {
			t.Fatalf("run %d added %d selections, first run added %d (determinism broken)", i, d, perRun)
		}
	}
	if ks.TightLoops != 3 {
		t.Fatalf("3 runs entered the tight loop %d times", ks.TightLoops)
	}
}

// TestKernelStatsReachRegistry runs an observed, watched simulation and
// checks the kernel counters come out the far end of the pipeline as
// kernel_* metric families in Prometheus exposition.
func TestKernelStatsReachRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	runSSAStats(t, 5, obs.NewRegistryObserver(reg), true)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`kernel_selects_total{mode="fenwick"}`,
		"kernel_exact_recomputes_total",
		`kernel_ssa_loops_total{loop="full"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s:\n%s", want, text)
		}
	}
	if strings.Contains(text, `mode="linear"`) {
		t.Errorf("linear selector counter emitted for a fenwick-only run:\n%s", text)
	}
}

// TestLanedAndSingleRunsCountAlike pins one counter vocabulary: the same
// seeds, run once as laned RunMany points and once as single observed Runs,
// leave the same run, step and selection counts in a registry. Apart from
// the families that describe how the engine executed them (loop variant,
// lane occupancy, wall time), neither side reports a series the other
// lacks.
func TestLanedAndSingleRunsCountAlike(t *testing.T) {
	n := chainNet(t, 40)
	base := Config{Method: SSA, Rates: Rates{Fast: 50, Slow: 1}, TEnd: 5, Unit: 40}
	seeds := []int64{1, 2, 3, 4}
	laned := obs.NewRegistry()
	if _, err := RunMany(context.Background(), n, BatchConfig{
		Base: base, Seeds: seeds, Metrics: laned, FinalsOnly: true,
	}); err != nil {
		t.Fatal(err)
	}
	single := obs.NewRegistry()
	for _, seed := range seeds {
		cfg := base
		cfg.Seed = seed
		cfg.Obs = obs.NewRegistryObserver(single)
		if _, err := Run(context.Background(), n, cfg); err != nil {
			t.Fatal(err)
		}
	}
	engine := func(name string) bool {
		for _, p := range []string{"kernel_ssa_loops_total", "kernel_ensemble_", "sim_wall_seconds"} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	ls, ss := laned.Snapshot(), single.Snapshot()
	for _, name := range []string{`sim_runs_total{sim="ssa"}`, `sim_steps_total{sim="ssa"}`, `kernel_selects_total{mode="fenwick"}`} {
		if ls[name] == 0 {
			t.Errorf("laned runs report no %s", name)
		}
	}
	for name, v := range ls {
		if engine(name) {
			continue
		}
		if sv, ok := ss[name]; !ok || sv != v {
			t.Errorf("%s: laned runs %g, single runs %g (present %v)", name, v, sv, ok)
		}
	}
	for name := range ss {
		if _, ok := ls[name]; !ok && !engine(name) {
			t.Errorf("only single runs report %s", name)
		}
	}
}
