package sim_test

// Golden SSA trajectories: the reference for the one exact-SSA engine.
// Every digest below was recorded from the scalar Gillespie engine
// (internal/sim/ssa.go) at commit 8a1c8e8, the last commit that had one,
// so the lane engine that replaced it is held to that engine's arithmetic
// bit for bit: same draws, same propensity updates in the same order, same
// drift guards. A digest is the SHA-256 (first 8 bytes, hex) of the
// math.Float64bits of every sample time and every cell, row by row.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/batch"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/phases"
	"repro/internal/sim"
	"repro/internal/sim/ensemble"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// goldenCase is one recorded configuration: a network, a config (its Seed
// is ignored) and, per seed, the trace digest and the firing count.
type goldenCase struct {
	name string
	net  func(testing.TB) *crn.Network
	cfg  sim.Config
	// sel forces the reaction selector (ensemble.Sel*); forced cases run
	// through ensemble.Run, since sim.Config has no selector knob.
	sel int
	// hooks attaches per-run events, an observer or watchers to a fresh
	// config; hooked cases run one lane wide through sim.Run.
	hooks   func(*sim.Config, *crn.Network)
	seeds   []int64
	digest  []string
	firings []uint64
}

func goldenCases() []goldenCase {
	chain := sim.Config{Method: sim.SSA, Rates: sim.Rates{Fast: 50, Slow: 1}, TEnd: 5, Unit: 40}
	clk := sim.Config{Method: sim.SSA, Rates: sim.Rates{Fast: 300, Slow: 1}, TEnd: 20, Unit: 100}
	chainNet := func(tb testing.TB) *crn.Network { return sim.ChainNet(tb, 40) }
	chainDigest := []string{"cbbf7f4ee99c656c", "0a2b12abb4e3f6bb", "d0a28accbbbbd6ad"}
	chainFirings := []uint64{5046, 5007, 5070}
	branchSeeds := make([]int64, 8) // TestEnsembleRaggedRetirement's seeds
	for i := range branchSeeds {
		branchSeeds[i] = batch.DeriveSeed(4, i)
	}
	return []goldenCase{
		// ~90 reactions: the Fenwick index under the auto rule.
		{name: "chain40", net: chainNet, cfg: chain, seeds: []int64{1, 7, 42},
			digest: chainDigest, firings: chainFirings},
		// Both selectors forced on the same runs: same digests.
		{name: "chain40/fenwick", net: chainNet, cfg: chain, sel: ensemble.SelFenwick, seeds: []int64{1, 7, 42},
			digest: chainDigest, firings: chainFirings},
		{name: "chain40/linear", net: chainNet, cfg: chain, sel: ensemble.SelLinear, seeds: []int64{1, 7, 42},
			digest: chainDigest, firings: chainFirings},
		// The 18-reaction clock: the linear scan under the auto rule.
		{name: "clock", net: clockNet, cfg: clk, seeds: []int64{1, 2, 3},
			digest:  []string{"c452de5e3f69e11a", "b12f467d014804ef", "597a5674ca220234"},
			firings: []uint64{14866, 14257, 14760}},
		// The 458-reaction clocked ring at Unit 50.
		{name: "ring", net: ringNet, cfg: sim.Config{Method: sim.SSA, Rates: sim.Rates{Fast: 300, Slow: 1}, TEnd: 10, Unit: 50},
			seeds:   []int64{1, 2, 3},
			digest:  []string{"b158aece56e7bf35", "6df6204ad0d91792", "bb0e7ee3d2114209"},
			firings: []uint64{4558, 4446, 4559}},
		// The clock over t_end 100: more than 65,536 firings, so the
		// periodic exact recompute (drift guard) runs mid-trajectory.
		{name: "clock/long", net: clockNet, cfg: sim.Config{Method: sim.SSA, Rates: sim.Rates{Fast: 300, Slow: 1}, TEnd: 100, Unit: 100},
			seeds: []int64{1}, digest: []string{"395c87c529005bee"}, firings: []uint64{72046}},
		// Supercritical birth-death from one molecule: runs that die out
		// after a few firings next to runs that fire thousands of times.
		{name: "branching", net: sim.BranchingNet,
			cfg:   sim.Config{Method: sim.SSA, Rates: sim.Rates{Fast: 2, Slow: 1}, TEnd: 9, Unit: 1, SampleEvery: 1},
			seeds: branchSeeds,
			digest: []string{"5049baaf3da0b506", "1e540cd122ec1cb3", "76b8556ad11a75eb", "1b753fa65bbc805f",
				"1b753fa65bbc805f", "a85b34ee2f4cafad", "d5f14dff1ad6365f", "1b753fa65bbc805f"},
			firings: []uint64{3, 63970, 48063, 1, 1, 2083, 7, 1}},
		// Injection events: a Schmitt probe on S1 empties it into S0 every
		// time it fills, so counts are rewritten and every propensity is
		// recomputed (and the Fenwick index rebuilt) many times a run.
		{name: "chain40/events", net: chainNet, cfg: chain, hooks: refillEvent,
			seeds: []int64{1}, digest: []string{"5a9851bba8f81f5e"}, firings: []uint64{47285}},
		// An observer and the default watchers change nothing in the
		// trajectory: the digest is chain40's for the same seed.
		{name: "chain40/observed", net: chainNet, cfg: chain, hooks: observe,
			seeds: []int64{1}, digest: chainDigest[:1], firings: chainFirings[:1]},
	}
}

// refillEvent attaches a fresh event (events carry trigger state) that
// moves S1 back into S0 whenever S1 reaches half a unit.
func refillEvent(cfg *sim.Config, _ *crn.Network) {
	cfg.Events = []*sim.Event{{Probe: "S1", High: 0.5, Low: 0.2, Fire: func(_ float64, s *sim.State) {
		s.Add("S0", s.Get("S1"))
		s.Set("S1", 0)
	}}}
}

// observe attaches a registry observer and the network's default watchers.
func observe(cfg *sim.Config, n *crn.Network) {
	cfg.Obs = obs.NewRegistryObserver(obs.NewRegistry())
	cfg.Watchers = sim.AutoWatchers(n)
}

// clockNet is the standalone 18-reaction molecular clock.
func clockNet(tb testing.TB) *crn.Network {
	tb.Helper()
	n := crn.NewNetwork()
	s := phases.NewScheme(n, "ph")
	if _, err := clock.Add(s, "clk", 1); err != nil {
		tb.Fatal(err)
	}
	if err := s.Build(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// ringNet is the clocked 8-register ring shifter (458 reactions).
func ringNet(tb testing.TB) *crn.Network {
	tb.Helper()
	const k = 8
	c := core.New("ring")
	regs := make([]*core.Register, k)
	for i := range regs {
		init := 0.0
		if i == 0 {
			init = 1
		}
		r, err := c.NewRegister(fmt.Sprintf("d%d", i), init)
		if err != nil {
			tb.Fatal(err)
		}
		regs[i] = r
	}
	for i := range regs {
		if err := c.Gain(regs[i].Q, regs[(i+1)%k].NS, 1, 1); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		tb.Fatal(err)
	}
	return c.Net
}

// digest hashes the bits of every sample time and cell of a trace.
func digest(tr *trace.Trace) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i, t := range tr.T {
		put(t)
		for _, v := range tr.Rows[i] {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// finalsMatch fails unless finals equal the trace's last row bit for bit.
func finalsMatch(t *testing.T, label string, tr *trace.Trace, finals []float64) {
	t.Helper()
	last := tr.Rows[len(tr.Rows)-1]
	if len(finals) != len(last) {
		t.Fatalf("%s: %d finals for %d species", label, len(finals), len(last))
	}
	for j := range last {
		if math.Float64bits(finals[j]) != math.Float64bits(last[j]) {
			t.Fatalf("%s: final %s = %v, trace ends at %v", label, tr.Names[j], finals[j], last[j])
		}
	}
}

// TestSSAGoldenSingleRuns runs every golden case one seed at a time
// through sim.Run (a one-lane block, hooked where the case has hooks) and
// checks each trace and firing count against the record.
func TestSSAGoldenSingleRuns(t *testing.T) {
	for _, c := range goldenCases() {
		if c.sel != ensemble.SelAuto {
			continue // sim.Run picks the selector itself
		}
		t.Run(c.name, func(t *testing.T) {
			n := c.net(t)
			for i, seed := range c.seeds {
				cfg := c.cfg
				cfg.Seed = seed
				var ks kernel.Stats
				cfg.Kernel = &ks
				if c.hooks != nil {
					c.hooks(&cfg, n)
				}
				tr, err := sim.Run(context.Background(), n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := digest(tr); got != c.digest[i] {
					t.Errorf("seed %d: digest %s, recorded %s", seed, got, c.digest[i])
				}
				if got := ks.Selects(); got != c.firings[i] {
					t.Errorf("seed %d: %d firings, recorded %d", seed, got, c.firings[i])
				}
			}
		})
	}
}

// TestEnsembleBitIdentical pins the lane engine to the recorded scalar
// trajectories at block widths 1, 4 and 16 (ragged final blocks
// included), in trace mode and in finals-only mode, through RunMany for
// the auto selector and through ensemble.Run for the forced ones.
func TestEnsembleBitIdentical(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			n := c.net(t)
			for _, lanes := range []int{1, 4, 16} {
				var ks kernel.Stats
				traces, _ := goldenBlocks(t, n, c, lanes, false, &ks)
				var firings uint64
				for i, tr := range traces {
					if got := digest(tr); got != c.digest[i] {
						t.Errorf("lanes=%d seed %d: digest %s, recorded %s", lanes, c.seeds[i], got, c.digest[i])
					}
					firings += c.firings[i]
				}
				if ks.Selects() != firings {
					t.Errorf("lanes=%d: %d firings, recorded %d", lanes, ks.Selects(), firings)
				}
				_, finals := goldenBlocks(t, n, c, lanes, true, nil)
				for i, tr := range traces {
					finalsMatch(t, fmt.Sprintf("lanes=%d finals-only seed %d", lanes, c.seeds[i]), tr, finals[i])
				}
			}
		})
	}
}

// goldenBlocks runs a case's seeds in blocks of the given width and
// returns the traces (nil in finals-only mode) and finals per seed.
func goldenBlocks(t *testing.T, n *crn.Network, c goldenCase, lanes int, finalsOnly bool, ks *kernel.Stats) ([]*trace.Trace, [][]float64) {
	t.Helper()
	if c.sel == ensemble.SelAuto {
		base := c.cfg
		base.Kernel = ks
		ens, err := sim.RunMany(context.Background(), n, sim.BatchConfig{
			Base: base, Seeds: c.seeds, Lanes: lanes, FinalsOnly: finalsOnly,
			Configure: func(_ int, cfg *sim.Config) {
				if c.hooks != nil {
					c.hooks(cfg, n)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ens.Err(); err != nil {
			t.Fatal(err)
		}
		return ens.Traces, ens.Finals
	}
	var traces []*trace.Trace
	var finals [][]float64
	for lo := 0; lo < len(c.seeds); lo += lanes {
		hi := min(lo+lanes, len(c.seeds))
		res, err := ensemble.Run(context.Background(), ensemble.Config{
			K:           kernel.Compile(n, c.cfg.Rates.Of),
			Names:       n.SpeciesNames(),
			Init:        n.Init(),
			Unit:        c.cfg.Unit,
			TEnd:        c.cfg.TEnd,
			SampleEvery: c.cfg.TEnd / 1000, // sim.Config's default
			MaxFirings:  50_000_000,
			Seeds:       c.seeds[lo:hi],
			FinalsOnly:  finalsOnly,
			Sel:         c.sel,
			Stats:       ks,
		})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, res.Traces...)
		finals = append(finals, res.Finals...)
	}
	return traces, finals
}
