package obs

import (
	"strings"
	"testing"
)

// healthSpecies is the synthetic species table of the ClockHealth tests:
// three phase species and their absence indicators.
var healthSpecies = []string{"R", "G", "B", "iR", "iG", "iB"}

func newHealth(t *testing.T) *ClockHealth {
	t.Helper()
	w := &ClockHealth{
		Phases: []PhaseGroup{
			{Name: "red", Species: []string{"R"}},
			{Name: "green", Species: []string{"G"}},
			{Name: "blue", Species: []string{"B"}},
		},
		Indicators: []string{"iR", "iG", "iB"},
		Threshold:  0.5,
	}
	if err := w.Bind(healthSpecies); err != nil {
		t.Fatal(err)
	}
	return w
}

// y builds a state vector [R G B iR iG iB].
func y(r, g, b, ir, ig, ib float64) []float64 { return []float64{r, g, b, ir, ig, ib} }

// TestClockHealthCleanRun: a perfectly regular tri-phase cycle with silent
// indicators must raise zero alerts.
func TestClockHealthCleanRun(t *testing.T) {
	w := newHealth(t)
	rec := &recorder{}
	states := []([]float64){
		y(1, 0, 0, 0, 0, 0), y(0, 1, 0, 0, 0, 0), y(0, 0, 1, 0, 0, 0),
	}
	tt := 0.0
	for cycle := 0; cycle < 6; cycle++ {
		for _, s := range states {
			w.Observe(tt, s, rec)
			tt++
		}
	}
	w.Finish(tt, rec)
	if len(rec.alerts) != 0 {
		t.Fatalf("clean run raised %d alerts: %+v", len(rec.alerts), rec.alerts)
	}
}

// TestClockHealthPhaseOverlap: two phase groups simultaneously occupied must
// alert once per episode, not once per sample.
func TestClockHealthPhaseOverlap(t *testing.T) {
	w := newHealth(t)
	rec := &recorder{}
	w.Observe(0, y(1, 0, 0, 0, 0, 0), rec)
	w.Observe(1, y(1, 1, 0, 0, 0, 0), rec) // overlap begins
	w.Observe(2, y(1, 1, 0, 0, 0, 0), rec) // still the same episode
	w.Observe(3, y(0, 1, 0, 0, 0, 0), rec) // clears
	w.Observe(4, y(0, 1, 1, 0, 0, 0), rec) // second episode
	w.Finish(5, rec)

	var overlaps []Alert
	for _, a := range rec.alerts {
		if a.Rule == "phase_overlap" {
			overlaps = append(overlaps, a)
		}
	}
	if len(overlaps) != 2 {
		t.Fatalf("overlap alerts = %d, want 2: %+v", len(overlaps), rec.alerts)
	}
	if overlaps[0].T != 1 || !strings.Contains(overlaps[0].Subject, "red") ||
		!strings.Contains(overlaps[0].Subject, "green") {
		t.Errorf("first overlap = %+v", overlaps[0])
	}
	if overlaps[1].T != 4 || !strings.Contains(overlaps[1].Subject, "blue") {
		t.Errorf("second overlap = %+v", overlaps[1])
	}
}

// TestClockHealthIndicatorLeak: an absence indicator present while its own
// colour class is occupied must alert (once per episode), and an indicator
// present while its class is EMPTY must not — that is the legal window.
func TestClockHealthIndicatorLeak(t *testing.T) {
	w := newHealth(t)
	rec := &recorder{}
	w.Observe(0, y(0, 1, 0, 0.2, 0, 0), rec) // iR high but R empty: legal
	w.Observe(1, y(1, 0, 0, 0.2, 0, 0), rec) // iR high while R occupied: leak
	w.Observe(2, y(1, 0, 0, 0.2, 0, 0), rec) // same episode
	w.Observe(3, y(1, 0, 0, 0, 0, 0), rec)   // clears
	w.Finish(4, rec)

	var leaks []Alert
	for _, a := range rec.alerts {
		if a.Rule == "indicator_leak" {
			leaks = append(leaks, a)
		}
	}
	if len(leaks) != 1 {
		t.Fatalf("leak alerts = %d, want 1: %+v", len(leaks), rec.alerts)
	}
	if leaks[0].Subject != "iR" || leaks[0].T != 1 || leaks[0].Value != 0.2 {
		t.Errorf("leak = %+v", leaks[0])
	}
}

// TestClockHealthPeriodJitter: irregular red onsets past MinCycles must raise
// exactly one period_jitter alert per run.
func TestClockHealthPeriodJitter(t *testing.T) {
	w := newHealth(t)
	rec := &recorder{}
	// Onsets at 0, 1, 5, 6, 10: periods 1, 4, 1, 4 — rel std dev ≈ 0.6.
	onsets := []float64{0, 1, 5, 6, 10}
	tt, next := 0.0, 0
	for tt <= 11 {
		r := 0.0
		if next < len(onsets) && tt >= onsets[next] {
			r = 1.0
			if tt >= onsets[next]+0.5 { // pulse lasts half a unit
				r = 0
			}
		}
		// Drive with a fine sample grid: pulse high at the onset instant,
		// low in between so the Schmitt trigger re-arms.
		high := false
		for _, o := range onsets {
			if tt >= o && tt < o+0.25 {
				high = true
			}
		}
		if high {
			r = 1
		} else {
			r = 0
		}
		if next < len(onsets) && tt >= onsets[next]+0.25 {
			next++
		}
		w.Observe(tt, y(r, 0, 0, 0, 0, 0), rec)
		tt += 0.125
	}
	w.Finish(tt, rec)

	var jit []Alert
	for _, a := range rec.alerts {
		if a.Rule == "period_jitter" {
			jit = append(jit, a)
		}
	}
	if len(jit) != 1 {
		t.Fatalf("jitter alerts = %d, want 1: %+v", len(jit), rec.alerts)
	}
	if jit[0].Value <= w.maxJit {
		t.Errorf("jitter value %g not above limit %g", jit[0].Value, jit[0].Limit)
	}
}

// TestClockHealthDutyDrift: an indicator stuck high for the whole run must
// raise duty_drift at Finish; the others stay silent.
func TestClockHealthDutyDrift(t *testing.T) {
	w := newHealth(t)
	rec := &recorder{}
	for i := 0; i <= 10; i++ {
		w.Observe(float64(i), y(0, 0, 0, 1, 0, 0), rec)
	}
	w.Finish(10, rec)
	var duty []Alert
	for _, a := range rec.alerts {
		if a.Rule == "duty_drift" {
			duty = append(duty, a)
		}
	}
	if len(duty) != 1 {
		t.Fatalf("duty alerts = %d, want 1: %+v", len(duty), rec.alerts)
	}
	if duty[0].Subject != "iR" || duty[0].Value <= 0.99 {
		t.Errorf("duty = %+v", duty[0])
	}
	// The duty is a left-rectangle integral: each sample's level holds until
	// the next sample. iR high on [0,2) and [8,10) reads exactly 4/10.
	wl := newHealth(t)
	wl.MaxDuty = 0.3
	if err := wl.Bind(healthSpecies); err != nil {
		t.Fatal(err)
	}
	recl := &recorder{}
	wl.Observe(0, y(0, 0, 0, 1, 0, 0), recl)
	wl.Observe(2, y(0, 0, 0, 0, 0, 0), recl)
	wl.Observe(8, y(0, 0, 0, 1, 0, 0), recl)
	wl.Finish(10, recl)
	if len(recl.alerts) != 1 || recl.alerts[0].Rule != "duty_drift" || recl.alerts[0].Value != 0.4 {
		t.Fatalf("left-rectangle duty alerts = %+v, want one duty_drift at 0.4", recl.alerts)
	}
	// A run with no simulated time has no duty to judge.
	wz := newHealth(t)
	wz.MaxDuty = 1e-9
	if err := wz.Bind(healthSpecies); err != nil {
		t.Fatal(err)
	}
	recz := &recorder{}
	wz.Observe(3, y(0, 0, 0, 1, 0, 0), recz)
	wz.Finish(3, recz)
	if len(recz.alerts) != 0 {
		t.Fatalf("zero-span run alerted: %+v", recz.alerts)
	}
	// Disabling the rule must silence it.
	w2 := newHealth(t)
	w2.MaxDuty = -1
	if err := w2.Bind(healthSpecies); err != nil {
		t.Fatal(err)
	}
	rec2 := &recorder{}
	for i := 0; i <= 10; i++ {
		w2.Observe(float64(i), y(0, 0, 0, 1, 0, 0), rec2)
	}
	w2.Finish(10, rec2)
	if len(rec2.alerts) != 0 {
		t.Fatalf("disabled duty rule still alerted: %+v", rec2.alerts)
	}
}

// TestClockHealthBindErrors: configuration mistakes must fail at Bind with
// telling messages, not at Observe.
func TestClockHealthBindErrors(t *testing.T) {
	cases := []struct {
		name string
		w    *ClockHealth
		want string
	}{
		{"one group", &ClockHealth{
			Phases:    []PhaseGroup{{Name: "r", Species: []string{"R"}}},
			Threshold: 0.5,
		}, "at least 2"},
		{"zero threshold", &ClockHealth{
			Phases: []PhaseGroup{
				{Name: "r", Species: []string{"R"}}, {Name: "g", Species: []string{"G"}},
			},
		}, "Threshold"},
		{"indicator mismatch", &ClockHealth{
			Phases: []PhaseGroup{
				{Name: "r", Species: []string{"R"}}, {Name: "g", Species: []string{"G"}},
			},
			Indicators: []string{"iR"},
			Threshold:  0.5,
		}, "must match"},
		{"unknown species", &ClockHealth{
			Phases: []PhaseGroup{
				{Name: "r", Species: []string{"R"}}, {Name: "g", Species: []string{"nope"}},
			},
			Threshold: 0.5,
		}, "unknown species"},
	}
	for _, c := range cases {
		err := c.w.Bind(healthSpecies)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestClockHealthRebind: Bind must reset all episode and accumulator state so
// a watcher can be reused across sequential (never concurrent) runs.
func TestClockHealthRebind(t *testing.T) {
	w := newHealth(t)
	rec := &recorder{}
	w.Observe(0, y(1, 1, 0, 0, 0, 0), rec)
	if len(rec.alerts) != 1 {
		t.Fatalf("setup overlap not alerted: %+v", rec.alerts)
	}
	if err := w.Bind(healthSpecies); err != nil {
		t.Fatal(err)
	}
	rec2 := &recorder{}
	w.Observe(0, y(1, 1, 0, 0, 0, 0), rec2)
	if len(rec2.alerts) != 1 {
		t.Fatalf("episode state survived rebind: %+v", rec2.alerts)
	}
	w.Finish(1, rec2)
	if len(rec2.alerts) != 1 {
		t.Fatalf("stale duty state after rebind: %+v", rec2.alerts)
	}
}
