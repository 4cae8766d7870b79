package sim

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/crn"
)

func decayNet(t *testing.T) *crn.Network {
	t.Helper()
	n := crn.NewNetwork()
	n.R("decay", map[string]int{"A": 1}, map[string]int{"B": 1}, crn.Slow)
	if err := n.SetInit("A", 1); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRatesOf(t *testing.T) {
	r := Rates{Fast: 100, Slow: 2}
	n := crn.NewNetwork()
	n.MustAddReaction("f", map[string]int{"X": 1}, map[string]int{"Y": 1}, crn.Fast, 3)
	n.R("s", map[string]int{"X": 1}, map[string]int{"Y": 1}, crn.Slow)
	if got := r.Of(n.Reaction(0)); got != 300 {
		t.Fatalf("fast*3 = %g", got)
	}
	if got := r.Of(n.Reaction(1)); got != 2 {
		t.Fatalf("slow = %g", got)
	}
}

func TestRatesValidate(t *testing.T) {
	if err := (Rates{Fast: 10, Slow: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	// The Fast == Slow boundary is degenerate (no timescale separation)
	// but numerically well-defined, so it is accepted.
	if err := (Rates{Fast: 5, Slow: 5}).Validate(); err != nil {
		t.Errorf("Fast == Slow rejected: %v", err)
	}
	for _, r := range []Rates{{0, 1}, {1, 0}, {1, 10}, {-1, -2}} {
		if err := r.Validate(); err == nil {
			t.Errorf("Rates %+v accepted", r)
		}
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, r := range []Rates{
		{Fast: nan, Slow: 1}, {Fast: 10, Slow: nan},
		{Fast: inf, Slow: 1}, {Fast: 10, Slow: inf},
		{Fast: math.Inf(-1), Slow: 1}, {Fast: nan, Slow: nan},
	} {
		if err := r.Validate(); err == nil {
			t.Errorf("non-finite Rates %+v accepted", r)
		}
	}
}

func TestDerivUnimolecular(t *testing.T) {
	n := decayNet(t)
	f := Deriv(n, Rates{Fast: 100, Slow: 2})
	y := []float64{0.5, 0} // A, B
	dydt := make([]float64, 2)
	f(0, y, dydt)
	if math.Abs(dydt[0]+1) > 1e-12 || math.Abs(dydt[1]-1) > 1e-12 {
		t.Fatalf("dydt = %v, want [-1 1]", dydt)
	}
}

func TestDerivDimerization(t *testing.T) {
	n := crn.NewNetwork()
	n.R("dimer", map[string]int{"X": 2}, map[string]int{"D": 1}, crn.Slow)
	f := Deriv(n, Rates{Fast: 100, Slow: 3})
	y := []float64{2, 0}
	dydt := make([]float64, 2)
	f(0, y, dydt)
	// rate = 3 * 2^2 = 12; X loses 2 per firing, D gains 1.
	if math.Abs(dydt[0]+24) > 1e-12 || math.Abs(dydt[1]-12) > 1e-12 {
		t.Fatalf("dydt = %v, want [-24 12]", dydt)
	}
}

func TestDerivZeroOrderAndCatalytic(t *testing.T) {
	n := crn.NewNetwork()
	n.R("gen", nil, map[string]int{"r": 1}, crn.Slow)
	n.R("consume", map[string]int{"r": 1, "R": 1}, map[string]int{"R": 1}, crn.Fast)
	f := Deriv(n, Rates{Fast: 10, Slow: 2})
	ri := n.MustIndex("r")
	Ri := n.MustIndex("R")
	y := make([]float64, n.NumSpecies())
	y[ri], y[Ri] = 0.5, 2
	dydt := make([]float64, n.NumSpecies())
	f(0, y, dydt)
	// dr/dt = 2 - 10*0.5*2 = -8 ; R is catalytic: dR/dt = 0.
	if math.Abs(dydt[ri]+8) > 1e-12 {
		t.Fatalf("dr/dt = %g, want -8", dydt[ri])
	}
	if dydt[Ri] != 0 {
		t.Fatalf("dR/dt = %g, want 0 (catalyst)", dydt[Ri])
	}
}

func TestDerivClampsNegativeInput(t *testing.T) {
	n := decayNet(t)
	f := Deriv(n, DefaultRates())
	dydt := make([]float64, 2)
	f(0, []float64{-0.1, 0}, dydt)
	if dydt[0] != 0 || dydt[1] != 0 {
		t.Fatalf("negative concentration produced flux: %v", dydt)
	}
}

func TestODERunDecay(t *testing.T) {
	n := decayNet(t)
	tr, err := Run(context.Background(), n, Config{Rates: Rates{Fast: 100, Slow: 1}, TEnd: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-3)
	if got := tr.Final("A"); math.Abs(got-want) > 1e-5 {
		t.Fatalf("A(3) = %g, want %g", got, want)
	}
	if got := tr.Final("B"); math.Abs(got-(1-want)) > 1e-5 {
		t.Fatalf("B(3) = %g", got)
	}
	if tr.Len() < 500 {
		t.Fatalf("only %d samples recorded", tr.Len())
	}
}

func TestODERunConservation(t *testing.T) {
	n := crn.NewNetwork()
	n.R("fwd", map[string]int{"A": 1}, map[string]int{"B": 1}, crn.Fast)
	n.R("rev", map[string]int{"B": 1}, map[string]int{"A": 1}, crn.Slow)
	if err := n.SetInit("A", 2); err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), n, Config{TEnd: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := range tr.T {
		sum := tr.Rows[k][0] + tr.Rows[k][1]
		if math.Abs(sum-2) > 1e-6 {
			t.Fatalf("mass not conserved at sample %d: %g", k, sum)
		}
	}
	// Equilibrium: A/B = slow/fast.
	a, b := tr.Final("A"), tr.Final("B")
	if math.Abs(a/b-0.01) > 1e-3 {
		t.Fatalf("equilibrium ratio %g, want 0.01", a/b)
	}
}

func TestODERunConfigErrors(t *testing.T) {
	n := decayNet(t)
	if _, err := Run(context.Background(), n, Config{TEnd: 0}); err == nil {
		t.Fatal("TEnd=0 accepted")
	}
	if _, err := Run(context.Background(), n, Config{TEnd: 1, Rates: Rates{Fast: 1, Slow: 2}}); err == nil {
		t.Fatal("inverted rates accepted")
	}
	if _, err := Run(context.Background(), n, Config{TEnd: 1, Events: []*Event{{Probe: "nope", High: 1, Low: 0}}}); err == nil {
		t.Fatal("event with unknown probe accepted")
	}
	if _, err := Run(context.Background(), n, Config{TEnd: 1, Events: []*Event{{Probe: "A", High: 0, Low: 1}}}); err == nil {
		t.Fatal("event with Low >= High accepted")
	}
}

func TestODERunEventInjection(t *testing.T) {
	// A is produced at a constant slow rate; an event watches A and, on
	// each rise through 1.0, zeroes it and bumps a counter species. The
	// result is a relaxation oscillator driven by the event machinery.
	n := crn.NewNetwork()
	n.R("gen", nil, map[string]int{"A": 1}, crn.Slow)
	n.AddSpecies("count")
	fires := 0
	ev := &Event{
		Probe: "A", High: 1.0, Low: 0.5,
		Fire: func(_ float64, s *State) {
			fires++
			s.Set("A", 0)
			s.Add("count", 1)
		},
	}
	tr, err := Run(context.Background(), n, Config{Rates: Rates{Fast: 100, Slow: 1}, TEnd: 5.5, Events: []*Event{ev}})
	if err != nil {
		t.Fatal(err)
	}
	if fires != 5 {
		t.Fatalf("event fired %d times, want 5", fires)
	}
	if got := tr.Final("count"); got != 5 {
		t.Fatalf("count = %g", got)
	}
}

func TestEventSchmittNoRefireWithoutRearm(t *testing.T) {
	// A rises monotonically; the event must fire exactly once even though
	// A stays above High forever after.
	n := crn.NewNetwork()
	n.R("gen", nil, map[string]int{"A": 1}, crn.Slow)
	fires := 0
	ev := &Event{Probe: "A", High: 0.5, Low: 0.25, Fire: func(_ float64, _ *State) { fires++ }}
	if _, err := Run(context.Background(), n, Config{TEnd: 3, Events: []*Event{ev}}); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("event fired %d times, want 1", fires)
	}
}

func TestStateAccessors(t *testing.T) {
	n := crn.NewNetwork()
	n.AddSpecies("X")
	st := &State{net: n, y: []float64{2}}
	if st.Get("X") != 2 || st.Get("missing") != 0 {
		t.Fatal("Get wrong")
	}
	st.Add("X", -5)
	if st.Get("X") != 0 {
		t.Fatalf("Add clamp failed: %g", st.Get("X"))
	}
	st.Set("X", -1)
	if st.Get("X") != 0 {
		t.Fatal("Set clamp failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add on unknown species did not panic")
		}
	}()
	st.Add("missing", 1)
}

func TestSSARunDecayMean(t *testing.T) {
	n := decayNet(t)
	// Large counts: single trajectory should be close to the ODE.
	tr, err := Run(context.Background(), n, Config{Method: SSA, Rates: Rates{Fast: 100, Slow: 1}, TEnd: 2, Unit: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-2)
	if got := tr.Final("A"); math.Abs(got-want) > 0.02 {
		t.Fatalf("SSA A(2) = %g, want ~%g", got, want)
	}
}

func TestSSARunConservesCounts(t *testing.T) {
	n := crn.NewNetwork()
	n.R("fwd", map[string]int{"A": 1}, map[string]int{"B": 1}, crn.Fast)
	n.R("rev", map[string]int{"B": 1}, map[string]int{"A": 1}, crn.Slow)
	if err := n.SetInit("A", 1); err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), n, Config{Method: SSA, TEnd: 1, Unit: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for k := range tr.T {
		sum := tr.Rows[k][0] + tr.Rows[k][1]
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("count not conserved at sample %d: %g", k, sum)
		}
	}
}

func TestSSARunDeterministicSeed(t *testing.T) {
	n := decayNet(t)
	run := func() []float64 {
		tr, err := Run(context.Background(), n, Config{Method: SSA, TEnd: 1, Unit: 50, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return tr.MustSeries("A")
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
}

func TestSSARunDimerizationStops(t *testing.T) {
	// 2X -> D with an odd count: one X must remain.
	n := crn.NewNetwork()
	n.R("dimer", map[string]int{"X": 2}, map[string]int{"D": 1}, crn.Fast)
	if err := n.SetInit("X", 0.5); err != nil { // 5 molecules at Unit=10
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), n, Config{Method: SSA, TEnd: 50, Unit: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Final("X"); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("X final = %g, want 0.1 (one leftover molecule)", got)
	}
	if got := tr.Final("D"); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("D final = %g, want 0.2", got)
	}
}

func TestSSARunConfigErrors(t *testing.T) {
	n := decayNet(t)
	if _, err := Run(context.Background(), n, Config{Method: SSA, TEnd: 1}); err == nil {
		t.Fatal("Unit=0 accepted")
	}
	if _, err := Run(context.Background(), n, Config{Method: SSA, Unit: 10}); err == nil {
		t.Fatal("TEnd=0 accepted")
	}
}

func TestSSARunEvent(t *testing.T) {
	n := crn.NewNetwork()
	n.R("gen", nil, map[string]int{"A": 1}, crn.Slow)
	fires := 0
	ev := &Event{Probe: "A", High: 0.5, Low: 0.2, Fire: func(_ float64, s *State) {
		fires++
		s.Set("A", 0)
	}}
	if _, err := Run(context.Background(), n, Config{Method: SSA, TEnd: 4, Unit: 100, Seed: 5, Events: []*Event{ev}}); err != nil {
		t.Fatal(err)
	}
	if fires < 4 || fires > 12 {
		t.Fatalf("event fired %d times, want roughly 8", fires)
	}
}

// TestRunBudgetExhausted pins that running out of MaxFirings before TEnd is
// an error wrapping ErrMaxFirings, from Run and in RunMany's per-run slots,
// never a truncated trajectory with a TEnd row holding the state at the cap.
func TestRunBudgetExhausted(t *testing.T) {
	n := crn.NewNetwork()
	n.R("decay", map[string]int{"X": 1}, nil, crn.Slow)
	if err := n.SetInit("X", 10); err != nil {
		t.Fatal(err)
	}
	ssa := Config{Method: SSA, TEnd: 5, Unit: 1000, Seed: 1, MaxFirings: 100}
	hooked := ssa
	hooked.Watchers = AutoWatchers(n)
	for _, c := range []struct {
		name string
		cfg  Config
		want error
	}{
		{"ssa", ssa, ErrMaxFirings},
		{"ssa/hooked", hooked, ErrMaxFirings},
	} {
		tr, err := Run(context.Background(), n, c.cfg)
		if !errors.Is(err, c.want) || tr != nil {
			t.Errorf("%s: Run = %v, %v; want no trace and %v", c.name, tr != nil, err, c.want)
		}
		ens, err := RunMany(context.Background(), n, BatchConfig{Base: c.cfg, Runs: 2})
		if err != nil {
			t.Fatalf("%s: RunMany: %v", c.name, err)
		}
		for i := range ens.Errs {
			if !errors.Is(ens.Errs[i], c.want) || ens.Finals[i] != nil {
				t.Errorf("%s: RunMany run %d: finals %v, err %v; want %v", c.name, i, ens.Finals[i], ens.Errs[i], c.want)
			}
		}
	}

	// The budget counts firings: ten molecules decay in exactly ten
	// firings and then the network is exhausted, so ten suffice and nine
	// do not.
	cfg := Config{Method: SSA, TEnd: 1e6, Unit: 1, Seed: 1, MaxFirings: 10}
	if _, err := Run(context.Background(), n, cfg); err != nil {
		t.Fatalf("MaxFirings 10: %v", err)
	}
	cfg.MaxFirings = 9
	if _, err := Run(context.Background(), n, cfg); !errors.Is(err, ErrMaxFirings) {
		t.Fatalf("MaxFirings 9: err = %v, want ErrMaxFirings", err)
	}
}

// Property: for random slow rate constants, ODE decay matches the closed
// form (rate independence of the harness itself).
func TestQuickODEDecayClosedForm(t *testing.T) {
	prop := func(kRaw uint8) bool {
		k := 0.25 + float64(kRaw)/64
		n := crn.NewNetwork()
		n.MustAddReaction("d", map[string]int{"A": 1}, nil, crn.Slow, k)
		if err := n.SetInit("A", 1); err != nil {
			return false
		}
		tr, err := Run(context.Background(), n, Config{Rates: Rates{Fast: 10, Slow: 1}, TEnd: 2})
		if err != nil {
			return false
		}
		want := math.Exp(-k * 2)
		return math.Abs(tr.Final("A")-want) < 1e-4
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: SSA respects conservation for a random closed two-species loop
// regardless of seed.
func TestQuickSSAConservation(t *testing.T) {
	prop := func(seed int64) bool {
		n := crn.NewNetwork()
		n.R("fwd", map[string]int{"A": 1}, map[string]int{"B": 1}, crn.Fast)
		n.R("rev", map[string]int{"B": 1}, map[string]int{"A": 1}, crn.Slow)
		if err := n.SetInit("A", 0.5); err != nil {
			return false
		}
		tr, err := Run(context.Background(), n, Config{Method: SSA, TEnd: 0.5, Unit: 40, Seed: seed})
		if err != nil {
			return false
		}
		for k := range tr.T {
			if math.Abs(tr.Rows[k][0]+tr.Rows[k][1]-0.5) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
