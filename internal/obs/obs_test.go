package obs

import (
	"strings"
	"testing"
)

// recorder captures every event for assertions.
type recorder struct {
	starts []SimStart
	edges  []ClockEdge
	phases []PhaseChange
	alerts []Alert
	ends   []SimEnd
}

func (r *recorder) OnSimStart(e SimStart)       { r.starts = append(r.starts, e) }
func (r *recorder) OnClockEdge(e ClockEdge)     { r.edges = append(r.edges, e) }
func (r *recorder) OnPhaseChange(e PhaseChange) { r.phases = append(r.phases, e) }
func (r *recorder) OnAlert(e Alert)             { r.alerts = append(r.alerts, e) }
func (r *recorder) OnSimEnd(e SimEnd)           { r.ends = append(r.ends, e) }

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() != nil")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) != nil")
	}
	a := &recorder{}
	if got := Multi(nil, a, nil); got != Observer(a) {
		t.Fatal("Multi with one live observer should return it unwrapped")
	}
	b := &recorder{}
	m := Multi(a, nil, b)
	m.OnSimStart(SimStart{Sim: "ode"})
	m.OnClockEdge(ClockEdge{Species: "R"})
	m.OnPhaseChange(PhaseChange{To: "green"})
	m.OnAlert(Alert{Rule: "period_jitter"})
	m.OnSimEnd(SimEnd{Sim: "ode"})
	for _, r := range []*recorder{a, b} {
		if len(r.starts) != 1 || len(r.edges) != 1 || len(r.phases) != 1 ||
			len(r.alerts) != 1 || len(r.ends) != 1 {
			t.Fatalf("fan-out incomplete: %+v", r)
		}
	}
}

func TestBaseIsNop(t *testing.T) {
	// Compile-time interface check plus a smoke call of every method.
	var o Observer = Base{}
	o.OnSimStart(SimStart{})
	o.OnClockEdge(ClockEdge{})
	o.OnPhaseChange(PhaseChange{})
	o.OnAlert(Alert{})
	o.OnSimEnd(SimEnd{})
	if Nop == nil {
		t.Fatal("Nop is nil")
	}
}

func TestProgress(t *testing.T) {
	var sb strings.Builder
	p := &Progress{W: &sb, Every: 0.5}
	var _ Watcher = p
	p.OnSimStart(SimStart{Sim: "ode", T0: 0, T1: 10, Species: []string{"X"}})
	if err := p.Bind([]string{"X"}); err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{1, 2, 5, 6, 9, 10} {
		p.Observe(tm, []float64{0}, Nop)
	}
	p.Finish(10, Nop)
	p.OnSimEnd(SimEnd{Sim: "ode", T: 10, Steps: 6, WallSeconds: 0.01})
	out := sb.String()
	if !strings.Contains(out, "ode start t=0..10") {
		t.Errorf("missing start line:\n%s", out)
	}
	if n := strings.Count(out, "%"); n < 2 {
		t.Errorf("expected at least two milestone lines, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "ode done t=10 steps=6") {
		t.Errorf("missing done line:\n%s", out)
	}
}
