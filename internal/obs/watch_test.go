package obs

import (
	"testing"
)

func TestEdgeWatcher(t *testing.T) {
	w := &EdgeWatcher{Species: []string{"R"}, High: 0.5, Low: 0.25}
	if err := w.Bind([]string{"R", "G"}); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	w.Observe(0, []float64{0.9, 0}, rec) // first sample: arms high, no edge
	if len(rec.edges) != 0 {
		t.Fatalf("first sample emitted %v", rec.edges)
	}
	w.Observe(1, []float64{0.3, 0}, rec) // in hysteresis band: nothing
	if len(rec.edges) != 0 {
		t.Fatalf("hysteresis band emitted %v", rec.edges)
	}
	w.Observe(2, []float64{0.1, 0}, rec) // below Low: falling edge
	w.Observe(3, []float64{0.4, 0}, rec) // below High: still low
	w.Observe(4, []float64{0.8, 0}, rec) // above High: rising edge
	if len(rec.edges) != 2 {
		t.Fatalf("edges = %v", rec.edges)
	}
	fall, rise := rec.edges[0], rec.edges[1]
	if fall.Rising || fall.Species != "R" || fall.T != 2 || fall.Level != 0.25 {
		t.Fatalf("falling edge = %+v", fall)
	}
	if !rise.Rising || rise.T != 4 || rise.Level != 0.5 {
		t.Fatalf("rising edge = %+v", rise)
	}
}

func TestEdgeWatcherAllSpecies(t *testing.T) {
	w := &EdgeWatcher{High: 1, Low: 0.5} // empty Species: watch everything
	if err := w.Bind([]string{"A", "B"}); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	w.Observe(0, []float64{0, 0}, rec)
	w.Observe(1, []float64{2, 0}, rec)
	w.Observe(2, []float64{2, 3}, rec)
	if len(rec.edges) != 2 || rec.edges[0].Species != "A" || rec.edges[1].Species != "B" {
		t.Fatalf("edges = %v", rec.edges)
	}
}

func TestEdgeWatcherErrors(t *testing.T) {
	if err := (&EdgeWatcher{High: 1, Low: 1}).Bind([]string{"A"}); err == nil {
		t.Fatal("Low >= High accepted")
	}
	w := &EdgeWatcher{Species: []string{"ghost"}, High: 1, Low: 0.5}
	if err := w.Bind([]string{"A"}); err == nil {
		t.Fatal("unknown species accepted")
	}
}

func TestPhaseWatcher(t *testing.T) {
	w := &PhaseWatcher{
		Groups: []PhaseGroup{
			{Name: "red", Species: []string{"R", "Rp"}},
			{Name: "green", Species: []string{"G"}},
		},
		Eps: 0.1,
	}
	if err := w.Bind([]string{"R", "G", "Rp"}); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	w.Observe(0, []float64{0.01, 0.02, 0.01}, rec) // all below Eps: undecided
	if len(rec.phases) != 0 {
		t.Fatalf("sub-Eps masses emitted %v", rec.phases)
	}
	w.Observe(1, []float64{0.4, 0.1, 0.3}, rec) // red (0.7) dominates: first determination
	w.Observe(2, []float64{0.4, 0.1, 0.3}, rec) // unchanged: silent
	w.Observe(3, []float64{0.1, 0.9, 0.0}, rec) // green takes over
	if len(rec.phases) != 2 {
		t.Fatalf("phases = %v", rec.phases)
	}
	if rec.phases[0].From != "" || rec.phases[0].To != "red" || rec.phases[0].T != 1 {
		t.Fatalf("first determination = %+v", rec.phases[0])
	}
	if rec.phases[1].From != "red" || rec.phases[1].To != "green" {
		t.Fatalf("transition = %+v", rec.phases[1])
	}
}

func TestPhaseWatcherErrors(t *testing.T) {
	w := &PhaseWatcher{Groups: []PhaseGroup{{Name: "only", Species: []string{"A"}}}}
	if err := w.Bind([]string{"A"}); err == nil {
		t.Fatal("single group accepted")
	}
	w = &PhaseWatcher{Groups: []PhaseGroup{
		{Name: "a", Species: []string{"A"}},
		{Name: "b", Species: []string{"ghost"}},
	}}
	if err := w.Bind([]string{"A"}); err == nil {
		t.Fatal("unknown species accepted")
	}
}

// TestEdgeWatcherExactThresholds pins the comparison directions at the
// boundaries: v == High fires rising (>=), v == Low does NOT fire falling
// (falling needs strict <), and a first sample landing exactly on High arms
// the watcher high without emitting an edge.
func TestEdgeWatcherExactThresholds(t *testing.T) {
	w := &EdgeWatcher{Species: []string{"R"}, High: 0.5, Low: 0.25}
	if err := w.Bind([]string{"R"}); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	w.Observe(0, []float64{0.5}, rec) // first sample exactly at High: arms, no edge
	if len(rec.edges) != 0 {
		t.Fatalf("first sample at High emitted %v", rec.edges)
	}
	w.Observe(1, []float64{0.25}, rec) // exactly at Low: still high (needs v < Low)
	if len(rec.edges) != 0 {
		t.Fatalf("v == Low emitted %v", rec.edges)
	}
	w.Observe(2, []float64{0.2499}, rec) // just under Low: falling
	if len(rec.edges) != 1 || rec.edges[0].Rising {
		t.Fatalf("edges after sub-Low = %v", rec.edges)
	}
	w.Observe(3, []float64{0.5}, rec) // exactly at High: rising (>=)
	if len(rec.edges) != 2 || !rec.edges[1].Rising || rec.edges[1].T != 3 {
		t.Fatalf("edges after re-High = %v", rec.edges)
	}
	// Oscillating between the exact thresholds keeps firing both directions.
	w.Observe(4, []float64{0.2}, rec)
	w.Observe(5, []float64{0.5}, rec)
	if len(rec.edges) != 4 {
		t.Fatalf("oscillation edges = %v", rec.edges)
	}
}

func TestWatcherHelpers(t *testing.T) {
	watchers := []Watcher{
		&EdgeWatcher{High: 0.5, Low: 0.25},
		&PhaseWatcher{Groups: []PhaseGroup{
			{Name: "a", Species: []string{"A"}},
			{Name: "b", Species: []string{"B"}},
		}},
	}
	if err := BindAll(watchers, []string{"A", "B"}); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	ObserveAll(watchers, 0, []float64{0, 0.1}, rec)
	ObserveAll(watchers, 1, []float64{1, 0.1}, rec)
	FinishAll(watchers, 2, rec)
	if len(rec.edges) != 1 {
		t.Fatalf("edges = %v", rec.edges)
	}
	if len(rec.phases) != 2 || rec.phases[0].To != "b" || rec.phases[1].To != "a" {
		t.Fatalf("phases = %v", rec.phases)
	}
	// BindAll fails fast on the first bad watcher.
	bad := []Watcher{&EdgeWatcher{Species: []string{"ghost"}, High: 1, Low: 0}}
	if err := BindAll(bad, []string{"A"}); err == nil {
		t.Fatal("BindAll accepted unknown species")
	}
}
