package ensemble

// White-box tests of the SoA block: the zero-allocation budget of the
// per-lane inner loop (the finals-only sweep fast path must not touch the
// allocator once the block is laid out), the block-construction checks and
// hooked blocks. The bit-identity contract and the firing budget are pinned
// one layer up, in internal/sim's TestEnsembleBitIdentical (against golden
// trajectories) and TestRunBudgetExhausted.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/crn"
	"repro/internal/sim/kernel"
)

// testRate binds Fast reactions to 50 and Slow to 1, like the sim-layer
// perf tests (the ensemble package itself is policy-free and never sees
// sim.Rates).
func testRate(rx crn.Reaction) float64 {
	if rx.Cat == crn.Fast {
		return 50 * rx.Mult
	}
	return rx.Mult
}

// chainNet mirrors the sim package's perf fixture: a mass-conserving
// reversible chain whose propensities never die out, so lanes can be
// advanced indefinitely inside an allocation probe.
func chainNet(tb testing.TB, m int) *crn.Network {
	tb.Helper()
	n := crn.NewNetwork()
	for i := 0; i < m; i++ {
		a, b := fmt.Sprintf("S%d", i), fmt.Sprintf("S%d", i+1)
		cls := crn.Slow
		if i%3 == 0 {
			cls = crn.Fast
		}
		n.R(fmt.Sprintf("f%d", i), map[string]int{a: 1}, map[string]int{b: 1}, cls)
		n.R(fmt.Sprintf("b%d", i), map[string]int{b: 1}, map[string]int{a: 1}, crn.Slow)
	}
	if err := n.SetInit("S0", 5); err != nil {
		tb.Fatal(err)
	}
	return n
}

func testConfig(tb testing.TB, n *crn.Network, lanes int, finalsOnly bool) Config {
	tb.Helper()
	seeds := make([]int64, lanes)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return Config{
		K:           kernel.Compile(n, testRate),
		Names:       n.SpeciesNames(),
		Init:        n.Init(),
		Unit:        1000,
		TEnd:        1e9, // far horizon: lanes never retire inside the probe
		SampleEvery: 1e9 / 1000,
		MaxFirings:  1 << 30,
		Seeds:       seeds,
		FinalsOnly:  finalsOnly,
	}
}

// TestEnsembleAdvanceAllocs pins the zero-allocation budget of the
// finals-only inner loop: once newBlock has laid the SoA state out,
// advancing lanes allocates nothing, in both selector modes.
func TestEnsembleAdvanceAllocs(t *testing.T) {
	for _, sel := range []int{SelFenwick, SelLinear} {
		cfg := testConfig(t, chainNet(t, 40), 4, true)
		cfg.Sel = sel
		b, err := newBlock(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lane := 0
		allocs := testing.AllocsPerRun(200, func() {
			if !b.advance(lane, 8) {
				t.Fatal("lane retired mid-probe")
			}
			lane = (lane + 1) % b.width
		})
		if allocs != 0 {
			t.Errorf("sel %d: %.1f allocs per advance, want 0", sel, allocs)
		}
	}
}

// TestEnsembleRunCounters checks the pass/occupancy accounting on a block
// that runs to completion.
func TestEnsembleRunCounters(t *testing.T) {
	n := chainNet(t, 10)
	var stats kernel.Stats
	cfg := testConfig(t, n, 3, true)
	cfg.TEnd = 5
	cfg.SampleEvery = 0.5
	cfg.Unit = 50
	cfg.Stats = &stats
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.Errs {
		if e != nil {
			t.Fatalf("lane %d: %v", i, e)
		}
		if res.Firings[i] == 0 {
			t.Fatalf("lane %d fired nothing", i)
		}
		if res.Finals[i] == nil {
			t.Fatalf("lane %d has no finals", i)
		}
	}
	if res.Traces != nil {
		t.Fatal("finals-only run materialized traces")
	}
	if stats.EnsembleBlocks != 1 || stats.EnsemblePasses == 0 {
		t.Fatalf("counters: %+v", stats)
	}
	if stats.LaneSteps > stats.LaneSlots {
		t.Fatalf("lane steps %d exceed slots %d", stats.LaneSteps, stats.LaneSlots)
	}
	if occ := stats.Occupancy(); occ <= 0 || occ > 1 {
		t.Fatalf("occupancy %v out of (0, 1]", occ)
	}
}

// TestEnsembleConfigChecks covers newBlock's validation.
func TestEnsembleConfigChecks(t *testing.T) {
	n := chainNet(t, 4)
	good := testConfig(t, n, 2, true)
	bad := good
	bad.K = nil
	if _, err := Run(context.Background(), bad); err == nil {
		t.Fatal("nil kernel accepted")
	}
	bad = good
	bad.Seeds = nil
	if _, err := Run(context.Background(), bad); err == nil {
		t.Fatal("empty seed list accepted")
	}
	bad = good
	bad.Init = bad.Init[:1]
	if _, err := Run(context.Background(), bad); err == nil {
		t.Fatal("short init vector accepted")
	}
	bad = good
	bad.Unit = 0
	if _, err := Run(context.Background(), bad); err == nil {
		t.Fatal("zero unit accepted")
	}
}

// TestEnsembleCancellation checks that cancelling mid-block keeps retired
// lanes' results and marks still-active lanes with wrapped context errors.
func TestEnsembleCancellation(t *testing.T) {
	cfg := testConfig(t, chainNet(t, 10), 3, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, cfg)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	for i, e := range res.Errs {
		if e == nil {
			t.Fatalf("lane %d missing interruption error", i)
		}
		if res.Finals[i] != nil {
			t.Fatalf("interrupted lane %d reported finals", i)
		}
	}
}

// recHooks records what a hooked block reports; when dump is set it empties
// S0 at the first firing that leaves S0 below 3 units, like an injection
// event.
type recHooks struct {
	fired, sampled int
	lastT          float64
	backwards      bool
	dump           bool
	dumped         int
}

func (h *recHooks) Fired(t float64, _ int, counts []float64) bool {
	if t < h.lastT {
		h.backwards = true
	}
	h.lastT = t
	h.fired++
	if h.dump && h.dumped == 0 && counts[0] < 3000 {
		h.dumped++
		counts[0] = 0
		return true
	}
	return false
}

func (h *recHooks) Sampled(t float64, conc []float64) { h.sampled++ }

// sampleHooks has only the per-sample hook, like a run with watchers and
// no events.
type sampleHooks struct{ sampled int }

func (h *sampleHooks) Sampled(t float64, conc []float64) { h.sampled++ }

// TestEnsembleHooks checks a hooked block: one Fired call per firing in
// time order, one Sampled call per trace row between t=0 and the horizon
// row, the same trajectory as the tight loop with per-firing hooks or
// per-sample hooks alone, and an exact recompute after a hook rewrites the
// counts.
func TestEnsembleHooks(t *testing.T) {
	cfg := testConfig(t, chainNet(t, 10), 1, false)
	cfg.TEnd, cfg.SampleEvery = 2, 0.01
	tight, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &recHooks{}
	cfg.Hooks = h
	hooked, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.fired != hooked.Firings[0] || h.fired == 0 || h.backwards {
		t.Errorf("Fired %d times (backwards %v) for %d firings", h.fired, h.backwards, hooked.Firings[0])
	}
	if rows := len(hooked.Traces[0].T); h.sampled < rows-2 || h.sampled > rows-1 {
		t.Errorf("Sampled %d times for %d rows", h.sampled, rows)
	}
	if hooked.Firings[0] != tight.Firings[0] || hooked.Finals[0][0] != tight.Finals[0][0] {
		t.Errorf("hooked run diverged: %d firings, S0 %v; unhooked %d, %v",
			hooked.Firings[0], hooked.Finals[0][0], tight.Firings[0], tight.Finals[0][0])
	}
	sh := &sampleHooks{}
	cfg.Hooks = sh
	sampled, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sh.sampled != h.sampled {
		t.Errorf("per-sample hooks alone: Sampled %d times, with Fired %d", sh.sampled, h.sampled)
	}
	if sampled.Firings[0] != tight.Firings[0] || sampled.Finals[0][0] != tight.Finals[0][0] {
		t.Errorf("per-sample hooked run diverged: %d firings, S0 %v; unhooked %d, %v",
			sampled.Firings[0], sampled.Finals[0][0], tight.Firings[0], tight.Finals[0][0])
	}

	var stats kernel.Stats
	cfg.Stats = &stats
	cfg.Hooks = &recHooks{dump: true}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if stats.ExactRecomputes != 2 {
		t.Errorf("%d exact recomputes, want 2 (start and after the rewrite)", stats.ExactRecomputes)
	}

	for _, bad := range []Config{testConfig(t, chainNet(t, 4), 2, false), testConfig(t, chainNet(t, 4), 1, true)} {
		bad.Hooks = &recHooks{}
		if _, err := Run(context.Background(), bad); err == nil {
			t.Errorf("hooks accepted on a %d-lane block, finals-only %v", len(bad.Seeds), bad.FinalsOnly)
		}
	}
}
