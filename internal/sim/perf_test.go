package sim

// Tests for the hot paths: selector equivalence between the Fenwick index
// and the linear scan, and the allocation budgets (zero allocations per
// Deriv evaluation and per SSA firing).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/crn"
	"repro/internal/sim/ensemble"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// chainNet builds a reversible reaction chain S0 <-> S1 <-> ... <-> Sm with
// mixed rate classes and a catalytic side tap every few links — enough
// reactions (2m+) to exercise the Fenwick descent over several tree levels,
// with propensities that never die out (the chain is mass-conserving).
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
		if i%4 == 0 {
			// Catalytic bimolecular tap: non-unit order and fan-out.
			n.R(fmt.Sprintf("c%d", i),
				map[string]int{a: 1, b: 1},
				map[string]int{a: 1, b: 1, "W": 1}, crn.Slow)
		}
	}
	if err := n.SetInit("S0", 5); err != nil {
		tb.Fatal(err)
	}
	if err := n.SetInit(fmt.Sprintf("S%d", m/2), 3); err != nil {
		tb.Fatal(err)
	}
	return n
}

// runForced runs one SSA trajectory of the chain fixture's configuration
// (TEnd 5, the given Unit) as a one-lane ensemble block with the selector
// forced, since sim.Config has no selector knob, and returns the trace and
// the block's counters.
func runForced(t *testing.T, n *crn.Network, seed int64, unit float64, sel int) (*trace.Trace, kernel.Stats) {
	t.Helper()
	var ks kernel.Stats
	res, err := ensemble.Run(context.Background(), ensemble.Config{
		K:           kernel.Compile(n, Rates{Fast: 50, Slow: 1}.Of),
		Names:       n.SpeciesNames(),
		Init:        n.Init(),
		Unit:        unit,
		TEnd:        5,
		SampleEvery: 5.0 / 1000,
		MaxFirings:  50_000_000,
		Seeds:       []int64{seed},
		Sel:         sel,
		Stats:       &ks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Errs[0]; err != nil {
		t.Fatal(err)
	}
	return res.Traces[0], ks
}

// TestSSASelectorByteIdentical pins the Fenwick selection index against the
// linear-scan selector: same seed, same network, the two selector modes
// must produce bit-for-bit identical traces. Both modes share every piece
// of floating-point bookkeeping (propensities, running total, drift
// recomputes) by construction, so any divergence here means the index
// changed the stochastic process rather than just the selection cost.
func TestSSASelectorByteIdentical(t *testing.T) {
	n := chainNet(t, 40) // ~90 reactions: above the auto crossover
	for _, seed := range []int64{1, 7, 42} {
		trF, _ := runForced(t, n, seed, 40, ensemble.SelFenwick)
		trL, _ := runForced(t, n, seed, 40, ensemble.SelLinear)
		if len(trF.T) != len(trL.T) {
			t.Fatalf("seed %d: %d vs %d samples", seed, len(trF.T), len(trL.T))
		}
		for i := range trF.T {
			if math.Float64bits(trF.T[i]) != math.Float64bits(trL.T[i]) {
				t.Fatalf("seed %d: sample %d time %v vs %v", seed, i, trF.T[i], trL.T[i])
			}
			for j := range trF.Rows[i] {
				fb, lb := math.Float64bits(trF.Rows[i][j]), math.Float64bits(trL.Rows[i][j])
				if fb != lb {
					t.Fatalf("seed %d: sample %d species %s: %v (%#x) vs %v (%#x)",
						seed, i, trF.Names[j], trF.Rows[i][j], fb, trL.Rows[i][j], lb)
				}
			}
		}
	}
}

// TestSSAFiringAllocs asserts the zero-allocation budget of the SSA inner
// loop, in both selector modes and with hooks attached: a run's allocation
// count does not grow with its firing count. Raising Unit tenfold fires
// ten times as often and leaves the samples, so the trace, unchanged.
func TestSSAFiringAllocs(t *testing.T) {
	n := chainNet(t, 40)
	for _, sel := range []int{ensemble.SelFenwick, ensemble.SelLinear} {
		allocs := func(unit float64) float64 {
			return testing.AllocsPerRun(20, func() { runForced(t, n, 3, unit, sel) })
		}
		if few, many := allocs(40), allocs(400); many != few {
			t.Errorf("sel %d: %.0f allocs at Unit 40, %.0f at Unit 400: firings allocate", sel, few, many)
		}
		// Every firing is tallied against exactly one selector mode.
		_, ks := runForced(t, n, 3, 400, sel)
		if ks.Selects() < 10000 {
			t.Errorf("sel %d: %d selects counted, want >= 10000", sel, ks.Selects())
		}
		if sel == ensemble.SelFenwick && ks.LinearSelects != 0 {
			t.Errorf("fenwick mode tallied %d linear selects", ks.LinearSelects)
		}
		if sel == ensemble.SelLinear && ks.FenwickSelects != 0 {
			t.Errorf("linear mode tallied %d fenwick selects", ks.FenwickSelects)
		}
	}
	hooked := func(unit float64) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(context.Background(), n, Config{Method: SSA, Rates: Rates{Fast: 50, Slow: 1},
				TEnd: 5, Unit: unit, Seed: 3, Watchers: AutoWatchers(n)}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := hooked(40), hooked(400); many != few {
		t.Errorf("hooked run: %.0f allocs at Unit 40, %.0f at Unit 400: firings allocate", few, many)
	}
}

// TestDerivAllocs asserts that evaluating the compiled ODE right-hand side
// allocates nothing after the one-time Compile.
func TestDerivAllocs(t *testing.T) {
	n := chainNet(t, 40)
	f := Deriv(n, Rates{Fast: 50, Slow: 1})
	y := make([]float64, n.NumSpecies())
	rng := rand.New(rand.NewSource(1))
	for i := range y {
		y[i] = rng.Float64()
	}
	dydt := make([]float64, len(y))
	if allocs := testing.AllocsPerRun(200, func() { f(0, y, dydt) }); allocs != 0 {
		t.Errorf("%.1f allocs per Deriv evaluation, want 0", allocs)
	}
}
