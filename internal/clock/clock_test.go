package clock

import (
	"context"
	"math"
	"testing"

	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/phases"
	"repro/internal/sim"
)

func buildClock(t *testing.T, amount float64) (*crn.Network, Clock) {
	t.Helper()
	n := crn.NewNetwork()
	s := phases.NewScheme(n, "ph")
	c, err := Add(s, "clk", amount)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return n, c
}

func TestAddValidation(t *testing.T) {
	n := crn.NewNetwork()
	s := phases.NewScheme(n, "ph")
	if _, err := Add(s, "clk", 0); err == nil {
		t.Fatal("zero amount accepted")
	}
	if _, err := Add(s, "clk", -1); err == nil {
		t.Fatal("negative amount accepted")
	}
}

func TestPhaseNames(t *testing.T) {
	_, c := buildClock(t, 1)
	if c.Phase(phases.Red) != "clk.CR" || c.Phase(phases.Green) != "clk.CG" || c.Phase(phases.Blue) != "clk.CB" {
		t.Fatalf("phase names: %+v", c)
	}
}

func TestPhasePanicsOnBadColour(t *testing.T) {
	_, c := buildClock(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("bad colour did not panic")
		}
	}()
	c.Phase(phases.Color(9))
}

func TestInitialStateInRed(t *testing.T) {
	n, c := buildClock(t, 2.5)
	if n.InitOf(c.R) != 2.5 || n.InitOf(c.G) != 0 || n.InitOf(c.B) != 0 {
		t.Fatalf("init: R=%g G=%g B=%g", n.InitOf(c.R), n.InitOf(c.G), n.InitOf(c.B))
	}
}

func TestSustainedOscillation(t *testing.T) {
	n, c := buildClock(t, 1)
	tr, err := sim.Run(context.Background(), n, sim.Config{Rates: sim.Rates{Fast: 1000, Slow: 1}, TEnd: 300})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Measure(tr, c)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles < 10 {
		t.Fatalf("only %d cycles in horizon (period %g)", st.Cycles, st.Period)
	}
	if st.Regularity > 0.02 {
		t.Fatalf("period jitter %.4f, want < 0.02", st.Regularity)
	}
	if st.PeakR < 0.9 || st.PeakG < 0.9 || st.PeakB < 0.9 {
		t.Fatalf("weak phases: %.3f %.3f %.3f", st.PeakR, st.PeakG, st.PeakB)
	}
	for name, ov := range map[string]float64{"RG": st.OverlapRG, "GB": st.OverlapGB, "BR": st.OverlapBR} {
		// Hand-off transients put ~10-15 % of the cycle in mixed states;
		// exclusivity beyond that indicates a broken gate.
		if ov > 0.2 {
			t.Fatalf("phase overlap %s = %.3f, want < 0.2", name, ov)
		}
	}
}

func TestHeartbeatAmountScales(t *testing.T) {
	n, c := buildClock(t, 3)
	tr, err := sim.Run(context.Background(), n, sim.Config{Rates: sim.Rates{Fast: 1000, Slow: 1}, TEnd: 200})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Measure(tr, c)
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakR < 2.7 {
		t.Fatalf("heartbeat 3: peak R = %g", st.PeakR)
	}
}

func TestCycleStartsMonotone(t *testing.T) {
	n, c := buildClock(t, 1)
	tr, err := sim.Run(context.Background(), n, sim.Config{Rates: sim.Rates{Fast: 500, Slow: 1}, TEnd: 150})
	if err != nil {
		t.Fatal(err)
	}
	starts, err := CycleStarts(tr, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) < 4 {
		t.Fatalf("only %d cycle starts", len(starts))
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			t.Fatal("cycle starts not increasing")
		}
	}
}

func TestRateIndependenceOfClockPresence(t *testing.T) {
	// The paper's claim: the clock oscillates for any fast >> slow. Check
	// a spread of ratios all sustain oscillation (period changes, shape
	// remains).
	for _, ratio := range []float64{50, 200, 1000} {
		n, c := buildClock(t, 1)
		tr, err := sim.Run(context.Background(), n, sim.Config{Rates: sim.Rates{Fast: ratio, Slow: 1}, TEnd: 250})
		if err != nil {
			t.Fatalf("ratio %g: %v", ratio, err)
		}
		st, err := Measure(tr, c)
		if err != nil {
			t.Fatalf("ratio %g: %v", ratio, err)
		}
		if st.Cycles < 5 {
			t.Fatalf("ratio %g: only %d cycles", ratio, st.Cycles)
		}
		if st.Regularity > 0.05 {
			t.Fatalf("ratio %g: jitter %.4f", ratio, st.Regularity)
		}
	}
}

func TestMeasureNeedsOscillation(t *testing.T) {
	n, c := buildClock(t, 1)
	// Far too short a horizon for three crossings.
	tr, err := sim.Run(context.Background(), n, sim.Config{TEnd: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(tr, c); err == nil {
		t.Fatal("Measure on non-oscillating trace accepted")
	}
	_ = n
	_ = math.Pi
}

// TestWatchLive runs the clock with its edge and phase watchers attached and
// checks the live event stream agrees with the oscillation: several rising
// edges per phase species and a strictly R -> G -> B phase sequence.
func TestWatchLive(t *testing.T) {
	n, c := buildClock(t, 1)
	rec := clockRecorder{rises: map[string]int{}}
	_, err := sim.Run(context.Background(), n, sim.Config{
		Rates:    sim.Rates{Fast: 500, Slow: 1},
		TEnd:     150,
		Obs:      &rec,
		Watchers: []obs.Watcher{c.Watch(), c.WatchPhases()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []string{c.R, c.G, c.B} {
		if rec.rises[sp] < 3 {
			t.Errorf("%s: %d rising edges, want >= 3", sp, rec.rises[sp])
		}
	}
	seq := rec.seq
	if len(seq) < 6 {
		t.Fatalf("only %d phase changes: %v", len(seq), seq)
	}
	// Clock starts in red, so the sequence must cycle R, G, B, R, ...
	want := []string{c.R, c.G, c.B}
	for i, p := range seq {
		if p != want[i%3] {
			t.Fatalf("phase sequence broken at %d: %v", i, seq)
		}
	}
}

// alertRecorder collects analyzer alerts.
type alertRecorder struct {
	obs.Base
	alerts *[]obs.Alert
}

func (r alertRecorder) OnAlert(e obs.Alert) { *r.alerts = append(*r.alerts, e) }

// TestHealthWatcherCleanRun: a healthy clock driven under its own
// HealthWatcher must raise zero alerts — phases stay exclusive, indicators
// stay in their legal windows, the period stays regular.
func TestHealthWatcherCleanRun(t *testing.T) {
	n := crn.NewNetwork()
	s := phases.NewScheme(n, "ph")
	c, err := Add(s, "clk", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	var alerts []obs.Alert
	_, err = sim.Run(context.Background(), n, sim.Config{
		Rates:    sim.Rates{Fast: 1000, Slow: 1},
		TEnd:     300,
		Obs:      alertRecorder{alerts: &alerts},
		Watchers: []obs.Watcher{c.HealthWatcher(s)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("clean clock raised %d alerts: %+v", len(alerts), alerts)
	}
}

// TestHealthWatcherDetectsOverlapFault: injecting heartbeat mass into the red
// phase species while green is active breaks the mutual-exclusion invariant;
// the analyzer must flag it as phase_overlap and the registry observer must
// count it.
func TestHealthWatcherDetectsOverlapFault(t *testing.T) {
	n := crn.NewNetwork()
	s := phases.NewScheme(n, "ph")
	c, err := Add(s, "clk", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var alerts []obs.Alert
	fault := &sim.Event{
		Probe: c.G, High: 0.5, Low: 0.25,
		Fire: func(tm float64, st *sim.State) {
			if tm > 50 { // let a few clean cycles establish the rhythm first
				st.Set(c.R, st.Get(c.R)+1)
			}
		},
	}
	_, err = sim.Run(context.Background(), n, sim.Config{
		Rates:    sim.Rates{Fast: 1000, Slow: 1},
		TEnd:     150,
		Events:   []*sim.Event{fault},
		Obs:      obs.Multi(obs.NewRegistryObserver(reg), alertRecorder{alerts: &alerts}),
		Watchers: []obs.Watcher{c.HealthWatcher(s)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var overlap *obs.Alert
	for i := range alerts {
		if alerts[i].Rule == "phase_overlap" {
			overlap = &alerts[i]
			break
		}
	}
	if overlap == nil {
		t.Fatalf("injected overlap not detected; alerts = %+v", alerts)
	}
	if overlap.T <= 50 {
		t.Fatalf("overlap alert at t=%g predates the injected fault", overlap.T)
	}
	key := obs.Label("clock_alerts_total", "rule", "phase_overlap")
	if got := reg.Snapshot()[key]; got < 1 {
		t.Fatalf("%s = %g, want >= 1", key, got)
	}
}

// clockRecorder counts rising edges per species and collects the To side
// of every phase change.
type clockRecorder struct {
	obs.Base
	rises map[string]int
	seq   []string
}

func (r *clockRecorder) OnClockEdge(e obs.ClockEdge) {
	if e.Rising {
		r.rises[e.Species]++
	}
}

func (r *clockRecorder) OnPhaseChange(e obs.PhaseChange) { r.seq = append(r.seq, e.To) }
