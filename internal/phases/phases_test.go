package phases

import (
	"context"
	"math"
	"testing"

	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestColorArithmetic(t *testing.T) {
	if Red.Next() != Green || Green.Next() != Blue || Blue.Next() != Red {
		t.Fatal("Next wrong")
	}
	if Red.Prev() != Blue || Green.Prev() != Red || Blue.Prev() != Green {
		t.Fatal("Prev wrong")
	}
	if Red.String() != "red" || Green.String() != "green" || Blue.String() != "blue" {
		t.Fatal("String wrong")
	}
}

func TestIndicatorNames(t *testing.T) {
	n := crn.NewNetwork()
	s := NewScheme(n, "ph")
	if s.Indicator(Red) != "ph.r" || s.Indicator(Green) != "ph.g" || s.Indicator(Blue) != "ph.b" {
		t.Fatalf("indicator names: %s %s %s", s.Indicator(Red), s.Indicator(Green), s.Indicator(Blue))
	}
	for c := Red; c <= Blue; c++ {
		if _, ok := n.SpeciesIndex(s.Indicator(c)); !ok {
			t.Fatalf("indicator %s not registered", s.Indicator(c))
		}
	}
}

func TestMemberRegistration(t *testing.T) {
	n := crn.NewNetwork()
	s := NewScheme(n, "ph")
	if err := s.AddMember(Red, "R1"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddMember(Red, "R1"); err != nil {
		t.Fatal("idempotent re-registration rejected:", err)
	}
	if err := s.AddMember(Green, "R1"); err == nil {
		t.Fatal("colour change accepted")
	}
	c, ok := s.MemberColor("R1")
	if !ok || c != Red {
		t.Fatalf("MemberColor = %v,%v", c, ok)
	}
	if got := s.Members(Red); len(got) != 1 || got[0] != "R1" {
		t.Fatalf("Members(Red) = %v", got)
	}
	if got := s.Members(Green); len(got) != 0 {
		t.Fatalf("Members(Green) = %v", got)
	}
}

func TestTransferValidation(t *testing.T) {
	n := crn.NewNetwork()
	s := NewScheme(n, "ph")
	s.MustAddMember(Red, "R1")
	s.MustAddMember(Green, "G1")
	s.MustAddMember(Blue, "B1")
	if err := s.AddTransfer("t", "nobody", map[string]int{"G1": 1}); err == nil {
		t.Fatal("unknown source accepted")
	}
	if err := s.AddTransfer("t", "R1", map[string]int{"B1": 1}); err == nil {
		t.Fatal("wrong-colour product accepted")
	}
	if err := s.AddTransfer("t", "R1", map[string]int{"G1": 0}); err == nil {
		t.Fatal("zero product coefficient accepted")
	}
	if err := s.AddTransferN("t", "R1", 0, map[string]int{"G1": 1}); err == nil {
		t.Fatal("zero source coefficient accepted")
	}
	// Sinks (non-members) are allowed products.
	if err := s.AddTransfer("ok", "R1", map[string]int{"G1": 1, "sink": 1}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildOnce(t *testing.T) {
	n := crn.NewNetwork()
	s := NewScheme(n, "ph")
	s.MustAddMember(Red, "R1")
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err == nil {
		t.Fatal("double Build accepted")
	}
	if err := s.AddMember(Green, "G1"); err == nil {
		t.Fatal("AddMember after Build accepted")
	}
	if err := s.AddTransfer("t", "R1", nil); err == nil {
		t.Fatal("AddTransfer after Build accepted")
	}
}

// buildLoop constructs the minimal one-member-per-colour transfer loop (a
// single-element molecular clock) and returns its network.
func buildLoop(t *testing.T) *crn.Network {
	t.Helper()
	n := crn.NewNetwork()
	s := NewScheme(n, "ph")
	s.MustAddMember(Red, "R1")
	s.MustAddMember(Green, "G1")
	s.MustAddMember(Blue, "B1")
	s.MustAddTransfer("rg", "R1", map[string]int{"G1": 1})
	s.MustAddTransfer("gb", "G1", map[string]int{"B1": 1})
	s.MustAddTransfer("br", "B1", map[string]int{"R1": 1})
	s.MustBuild()
	if err := n.SetInit("R1", 1); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBuildReactionInventory(t *testing.T) {
	n := buildLoop(t)
	// 3 generators + 3 consumption + 3 dimerize + 3 undimerize
	// + 3 gated transfers + 3 feedback (one target member each) = 18.
	if got := n.NumReactions(); got != 18 {
		t.Fatalf("NumReactions = %d, want 18\n%s", got, n)
	}
	if n.MaxOrder() != 2 {
		t.Fatalf("MaxOrder = %d, want 2", n.MaxOrder())
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildConservesSignalMass(t *testing.T) {
	n := buildLoop(t)
	weights := map[string]float64{
		"R1": 1, "G1": 1, "B1": 1,
		"I_R1": 2, "I_G1": 2, "I_B1": 2,
	}
	if !n.ConservedSum(weights) {
		t.Fatal("signal mass not statically conserved by the loop reactions")
	}
}

func TestLoopOscillates(t *testing.T) {
	n := buildLoop(t)
	// The companion abstract's simulations use kfast/kslow = 1000; at that
	// ratio the phase hand-offs are crisp (peaks near 1).
	tr, err := sim.Run(context.Background(), n, sim.Config{Rates: sim.Rates{Fast: 1000, Slow: 1}, TEnd: 120})
	if err != nil {
		t.Fatal(err)
	}
	// Sustained oscillation: the red member must rise through 0.5
	// repeatedly and regularly.
	period, rel, err := tr.Period("R1", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if period <= 0 {
		t.Fatalf("period = %g", period)
	}
	if rel > 0.15 {
		t.Fatalf("period regularity %.3f, want < 0.15 (period %g)", rel, period)
	}
	// All three phases participate.
	for _, sp := range []string{"R1", "G1", "B1"} {
		s := tr.MustSeries(sp)
		if trace.Max(s) < 0.8 {
			t.Fatalf("%s peak %.3f, want > 0.8", sp, trace.Max(s))
		}
	}
	// Phase exclusivity: no two phase signals materially coexist.
	r, g := tr.MustSeries("R1"), tr.MustSeries("G1")
	ov, err := trace.Overlap(r, g)
	if err != nil {
		t.Fatal(err)
	}
	if ov > 0.15 {
		t.Fatalf("R/G overlap %.3f, want < 0.15", ov)
	}
	// Dynamic conservation of signal mass.
	for k := 0; k < tr.Len(); k += 50 {
		sum := 0.0
		for sp, w := range map[string]float64{"R1": 1, "G1": 1, "B1": 1, "I_R1": 2, "I_G1": 2, "I_B1": 2} {
			i, _ := tr.Index(sp)
			sum += w * tr.Rows[k][i]
		}
		if math.Abs(sum-1) > 0.01 {
			t.Fatalf("signal mass at sample %d: %g", k, sum)
		}
	}
}

func TestTransferMovesFullQuantity(t *testing.T) {
	// A single gated transfer with no return path: all of R1 must end in
	// G1 (to within the indicator residue set by the rate ratio).
	n := crn.NewNetwork()
	s := NewScheme(n, "ph")
	s.MustAddMember(Red, "R1")
	s.MustAddMember(Green, "G1")
	s.MustAddTransfer("rg", "R1", map[string]int{"G1": 1})
	s.MustBuild()
	if err := n.SetInit("R1", 0.75); err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(context.Background(), n, sim.Config{Rates: sim.Rates{Fast: 200, Slow: 1}, TEnd: 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Final("G1"); math.Abs(got-0.75) > 0.02 {
		t.Fatalf("G1 final = %g, want 0.75", got)
	}
	if got := tr.Final("R1"); got > 0.02 {
		t.Fatalf("R1 residue = %g", got)
	}
}

func TestTransferNHalving(t *testing.T) {
	// 2R1 -> G1 implements an exact divide-by-two of the transferred
	// quantity (rational gain 1/2).
	n := crn.NewNetwork()
	s := NewScheme(n, "ph")
	s.MustAddMember(Red, "R1")
	s.MustAddMember(Green, "G1")
	if err := s.AddTransferN("halve", "R1", 2, map[string]int{"G1": 1}); err != nil {
		t.Fatal(err)
	}
	s.MustBuild()
	if err := n.SetInit("R1", 1); err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(context.Background(), n, sim.Config{Rates: sim.Rates{Fast: 200, Slow: 1}, TEnd: 200})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Final("G1"); math.Abs(got-0.5) > 0.03 {
		t.Fatalf("G1 final = %g, want 0.5", got)
	}
}

func TestFanoutTransfer(t *testing.T) {
	// One unit of R1 fans out into one unit each of two green targets.
	n := crn.NewNetwork()
	s := NewScheme(n, "ph")
	s.MustAddMember(Red, "R1")
	s.MustAddMember(Green, "Ga")
	s.MustAddMember(Green, "Gb")
	s.MustAddTransfer("fan", "R1", map[string]int{"Ga": 1, "Gb": 1})
	s.MustBuild()
	if err := n.SetInit("R1", 1); err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(context.Background(), n, sim.Config{TEnd: 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []string{"Ga", "Gb"} {
		if got := tr.Final(sp); math.Abs(got-1) > 0.03 {
			t.Fatalf("%s final = %g, want 1", sp, got)
		}
	}
}

func TestAccessorsAndMustPanics(t *testing.T) {
	n := crn.NewNetwork()
	s := NewScheme(n, "ph")
	if s.Net() != n {
		t.Fatal("Net accessor wrong")
	}
	s.MustAddMember(Red, "R1")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustAddMember conflict did not panic")
			}
		}()
		s.MustAddMember(Green, "R1")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustAddTransfer on unknown source did not panic")
			}
		}()
		s.MustAddTransfer("t", "nobody", nil)
	}()
	s.MustBuild()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double MustBuild did not panic")
			}
		}()
		s.MustBuild()
	}()
}

func TestDisableFeedbackOmitsDimers(t *testing.T) {
	n := crn.NewNetwork()
	s := NewScheme(n, "ph")
	s.DisableFeedback()
	s.MustAddMember(Red, "R1")
	s.MustAddMember(Green, "G1")
	s.MustAddTransfer("rg", "R1", map[string]int{"G1": 1})
	s.MustBuild()
	// 3 generators + 2 consumption + 1 gated transfer = 6; no dimers, no
	// feedback accelerators.
	if got := n.NumReactions(); got != 6 {
		t.Fatalf("NumReactions = %d, want 6\n%s", got, n)
	}
	if _, ok := n.SpeciesIndex(s.Dimer("R1")); ok {
		t.Fatal("dimer species created despite DisableFeedback")
	}
}

// TestSchemeWatchers runs the three-member loop with the scheme's phase
// watcher and a clock-health analyzer over its colour classes attached: the
// dominant colour class must hand off repeatedly, and each absence indicator
// must spend only a minority of the run at or above 0.1 (the discipline
// allows it high only while its colour class is empty). A duty bound of
// 1e-9 makes the duty_drift rule report every indicator's duty cycle.
func TestSchemeWatchers(t *testing.T) {
	n := crn.NewNetwork()
	s := NewScheme(n, "ph")
	s.MustAddMember(Red, "R1")
	s.MustAddMember(Green, "G1")
	s.MustAddMember(Blue, "B1")
	s.MustAddTransfer("rg", "R1", map[string]int{"G1": 1})
	s.MustAddTransfer("gb", "G1", map[string]int{"B1": 1})
	s.MustAddTransfer("br", "B1", map[string]int{"R1": 1})
	s.MustBuild()
	if err := n.SetInit("R1", 1); err != nil {
		t.Fatal(err)
	}
	health := &obs.ClockHealth{
		Threshold: 0.5, LeakEps: 0.1, MaxDuty: 1e-9, MaxJitter: -1,
	}
	for c := Red; c <= Blue; c++ {
		health.Phases = append(health.Phases, obs.PhaseGroup{Name: c.String(), Species: s.Members(c)})
		health.Indicators = append(health.Indicators, s.Indicator(c))
	}
	pc := phaseCounter{to: map[string]int{}, duty: map[string]float64{}}
	_, err := sim.Run(context.Background(), n, sim.Config{
		Rates:    sim.Rates{Fast: 500, Slow: 1},
		TEnd:     150,
		Obs:      pc,
		Watchers: []obs.Watcher{s.PhaseWatcher(0.25), health},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, col := range []string{"red", "green", "blue"} {
		total += pc.to[col]
	}
	if total < 6 {
		t.Fatalf("only %d phase changes recorded: %v", total, pc.to)
	}
	for c := Red; c <= Blue; c++ {
		ind := s.Indicator(c)
		duty, ok := pc.duty[ind]
		if !ok {
			t.Fatalf("no duty_drift alert for %s", ind)
		}
		if duty <= 0 || duty > 0.6 {
			t.Errorf("duty of %s = %g, want in (0, 0.6]", ind, duty)
		}
	}
}

// phaseCounter counts phase changes by the phase entered and records the
// duty cycle each duty_drift alert reports, by indicator.
type phaseCounter struct {
	obs.Base
	to   map[string]int
	duty map[string]float64
}

func (c phaseCounter) OnPhaseChange(e obs.PhaseChange) { c.to[e.To]++ }

func (c phaseCounter) OnAlert(e obs.Alert) {
	if e.Rule == "duty_drift" {
		c.duty[e.Subject] = e.Value
	}
}
