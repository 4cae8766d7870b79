package repro_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/crn"
	"repro/internal/logic"
	"repro/internal/ode"
	"repro/internal/sfg"
	"repro/internal/sim"
	"repro/internal/sim/kernel"
	"repro/internal/synth"
)

// gridDesigns are the five circuits of the solver decision grid: the clock
// alone, the 2- and 4-register rings, the 2-bit counter and the 4-tap
// moving average.
var gridDesigns = []struct {
	name  string
	build func(testing.TB) *crn.Network
}{
	{"clock", buildClockNet},
	{"ring2", func(tb testing.TB) *crn.Network { return buildRingNet(tb, 2) }},
	{"ring4", func(tb testing.TB) *crn.Network { return buildRingNet(tb, 4) }},
	{"cnt2", buildCounterNet},
	{"ma4", buildMovAvgNet},
}

// gridRatios are the fast/slow ratios of the decision grid.
var gridRatios = []float64{100, 165, 300, 1e3, 3e3, 1e4, 3e4}

func buildCounterNet(tb testing.TB) *crn.Network {
	tb.Helper()
	f, err := logic.Counter(2)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := logic.Compile(f, "cnt")
	if err != nil {
		tb.Fatal(err)
	}
	return m.Circuit.Net
}

func buildMovAvgNet(tb testing.TB) *crn.Network {
	tb.Helper()
	g, err := sfg.MovingAverage(4)
	if err != nil {
		tb.Fatal(err)
	}
	cp, err := synth.Compile(g, "f")
	if err != nil {
		tb.Fatal(err)
	}
	return cp.Circuit.Net
}

// gridCheaper is the measured decision grid (EXPERIMENTS.md, "Solver
// decision grid"): per design and gridRatios entry, the fixed solver that
// was at least 1.5x cheaper than the other at t_end 10, or "" where
// neither was.
var gridCheaper = map[string][]string{
	"clock": {"", "explicit", "", "stiff", "stiff", "stiff", "stiff"},
	"ring2": {"explicit", "explicit", "", "stiff", "stiff", "stiff", "stiff"},
	"ring4": {"explicit", "explicit", "", "stiff", "stiff", "stiff", "stiff"},
	"cnt2":  {"explicit", "explicit", "", "stiff", "stiff", "stiff", "stiff"},
	"ma4":   {"explicit", "explicit", "", "stiff", "stiff", "stiff", "stiff"},
}

// TestSolverDecisionGrid pins the automatic solver's decision on the grid:
// wherever one fixed solver is at least 1.5x cheaper, auto runs it, and
// every handoff happens within the first 1% of the horizon. The decision
// is deterministic, so it is pinned rather than wall time.
func TestSolverDecisionGrid(t *testing.T) {
	const tEnd = 10.0
	for _, d := range gridDesigns {
		net := d.build(t)
		for i, r := range gridRatios {
			capt := &odeEndCapture{}
			if _, err := sim.Run(context.Background(), net, sim.Config{
				Method: sim.ODE, Rates: sim.Rates{Fast: r, Slow: 1}, TEnd: tEnd, Obs: capt,
			}); err != nil {
				t.Fatalf("%s@%g: %v", d.name, r, err)
			}
			od := capt.end.ODE
			switch want := gridCheaper[d.name][i]; {
			case want == "explicit" && od.Switched:
				t.Errorf("%s@%g: auto handed off at t=%g (h·ρ %.3g, work ratio %.3g); explicit is cheaper",
					d.name, r, od.SwitchT, od.HRho, od.WorkRatio)
			case want == "stiff" && !od.Switched:
				t.Errorf("%s@%g: auto stayed explicit (largest work ratio %.3g); stiff is cheaper",
					d.name, r, od.WorkRatio)
			}
			if od.Switched && (od.SwitchT > tEnd/100 || od.WorkRatio <= 1 || od.HRho <= 0) {
				t.Errorf("%s@%g: handoff at t=%g with h·ρ %.3g, work ratio %.3g; want t <= %g and ratio > 1",
					d.name, r, od.SwitchT, od.HRho, od.WorkRatio, tEnd/100)
			}
			// autoDecision, which the other decision tests use, must
			// decide exactly as sim.Run does.
			if sw, at, _ := autoDecision(t, net, r, tEnd); sw != od.Switched || at != od.SwitchT {
				t.Errorf("%s@%g: autoDecision switched=%v at %g; sim.Run switched=%v at %g",
					d.name, r, sw, at, od.Switched, od.SwitchT)
			}
		}
	}
}

// TestSolverDecisionMonotone checks, over 40 log-spaced ratios from 100 to
// 3e4 per design, that once the automatic solver hands off at some ratio
// it hands off at every higher one: no isolated handoffs, no gaps.
func TestSolverDecisionMonotone(t *testing.T) {
	const n = 40
	for _, d := range gridDesigns {
		net := d.build(t)
		first := 0.0
		for i := 0; i < n; i++ {
			r := 100 * math.Pow(300, float64(i)/(n-1))
			switched, _, _ := autoDecision(t, net, r, 10)
			switch {
			case switched && first == 0:
				first = r
			case !switched && first > 0:
				t.Errorf("%s: hands off at ratio %.4g but not at %.4g", d.name, first, r)
			}
		}
		t.Logf("%s: hands off from ratio %.4g", d.name, first)
	}
}

// TestSweepRatiosStayExplicit copies the ODE sweep ratios of the serving
// benchmark's sweep-jobs workload (perfbench explicitRatios: the clock and
// ring2 lists) and checks that no run on them hands off at t_end 10.
func TestSweepRatiosStayExplicit(t *testing.T) {
	for _, c := range []struct {
		design string
		net    *crn.Network
		ratios []float64
	}{
		{"clock", buildClockNet(t), []float64{100, 109, 119, 128, 137, 147, 156, 165, 175, 184, 193, 203, 212, 221, 231, 240}},
		{"ring2", buildRingNet(t, 2), []float64{100, 104, 109, 113, 117, 122, 126, 130, 135, 139, 143, 148, 152, 156, 161, 165}},
	} {
		for _, r := range c.ratios {
			if switched, at, st := autoDecision(t, c.net, r, 10); switched {
				t.Errorf("%s@%g hands off at t=%g (work ratio %.3g)", c.design, r, at, st.WorkRatio)
			}
		}
	}
}

// TestStiffAutoHandsOffEarly checks the nine problems of the serving
// benchmark's stiff-auto workload: each hands off within the first 1% of
// its horizon.
func TestStiffAutoHandsOffEarly(t *testing.T) {
	nets := map[string]*crn.Network{}
	for _, d := range gridDesigns {
		nets[d.name] = d.build(t)
	}
	for _, p := range []struct {
		design     string
		fast, tEnd float64
	}{
		{"clock", 1e4, 3}, {"clock", 3e4, 3}, {"ma4", 3e4, 10}, {"clock", 1e4, 10}, {"ring4", 3e4, 10},
		{"ring2", 3e4, 3}, {"cnt2", 3e4, 10}, {"ring2", 1e4, 10}, {"ring4", 1e4, 5},
	} {
		switched, at, _ := autoDecision(t, nets[p.design], p.fast, p.tEnd)
		if !switched || at > p.tEnd/100 {
			t.Errorf("%s@%g/%g: switched=%v at t=%g, want a handoff by t=%g",
				p.design, p.fast, p.tEnd, switched, at, p.tEnd/100)
		}
	}
}

// BenchmarkSolverGrid runs every cell of the decision grid at t_end 10
// under each solver; EXPERIMENTS.md's decision-grid table is its smallest
// ns/op per cell over a few counts.
func BenchmarkSolverGrid(b *testing.B) {
	for _, d := range gridDesigns {
		net := d.build(b)
		for _, r := range gridRatios {
			for _, s := range sim.Solvers() {
				b.Run(fmt.Sprintf("%s/%g/%s", d.name, r, s), func(b *testing.B) { benchODE(b, net, r, 10, s) })
			}
		}
	}
}

// autoDecision integrates net at the given ratio over [0, tEnd] the way
// sim.Run's automatic solver starts — the explicit method with stiffness
// detection, sim's default step cap of one sample interval and
// non-negative projection — and reports whether and when it hands off.
// It stops at the hand-off, so a decision costs only the explicit leg.
func autoDecision(tb testing.TB, net *crn.Network, ratio, tEnd float64) (switched bool, at float64, st ode.Stats) {
	tb.Helper()
	k := kernel.Compile(net, sim.Rates{Fast: ratio, Slow: 1}.Of)
	deriv := func(_ float64, y, dydt []float64) { k.Deriv(y, dydt) }
	opts := ode.Options{MaxStep: tEnd / 1000, NonNegative: true, StiffDetect: true}
	st, err := ode.Integrate(context.Background(), deriv, net.Init(), 0, tEnd, opts, nil)
	switch {
	case errors.Is(err, ode.ErrStiff):
		return true, st.T, st
	case err != nil:
		tb.Fatalf("ratio %g: %v", ratio, err)
	}
	return false, 0, st
}
