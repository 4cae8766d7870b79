package obs

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("Value = %g, want 3.5", got)
	}
	c.Add(-1) // counters only go up
	c.Add(math.NaN())
	if got := c.Value(); got != 3.5 {
		t.Fatalf("Value after invalid adds = %g, want 3.5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2)
	g.Add(-3)
	if got := g.Value(); got != -1 {
		t.Fatalf("Value = %g, want -1", got)
	}
}

func TestHistogram(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 0.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("Sum = %g", h.Sum())
	}
	if h.Mean() != 26.5 {
		t.Fatalf("Mean = %g", h.Mean())
	}
	bounds, cum, _, n := h.snapshot()
	if len(bounds) != 2 || bounds[0] != 1 || bounds[1] != 10 {
		t.Fatalf("bounds = %v", bounds)
	}
	// Cumulative: <=1 holds two, <=10 holds three, +Inf holds all four.
	if cum[0] != 2 || cum[1] != 3 || cum[2] != 4 || n != 4 {
		t.Fatalf("cum = %v n = %d", cum, n)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("x_total"); got != "x_total" {
		t.Fatalf("no-label = %q", got)
	}
	if got := Label("x_total", "sim", "ode"); got != `x_total{sim="ode"}` {
		t.Fatalf("one label = %q", got)
	}
	if got := Label("x", "a", "1", "b", "2"); got != `x{a="1",b="2"}` {
		t.Fatalf("two labels = %q", got)
	}
	if got := Label("x", "k", `a"b\c`); got != `x{k="a\"b\\c"}` {
		t.Fatalf("escaping = %q", got)
	}
}

func TestSuffixedAndWithLabel(t *testing.T) {
	if got := suffixed(`h{a="b"}`, "_bucket"); got != `h_bucket{a="b"}` {
		t.Fatalf("suffixed labelled = %q", got)
	}
	if got := suffixed("h", "_sum"); got != "h_sum" {
		t.Fatalf("suffixed bare = %q", got)
	}
	if got := withLabel(`h{a="b"}`, "le", "0.5"); got != `h{a="b",le="0.5"}` {
		t.Fatalf("withLabel labelled = %q", got)
	}
	if got := withLabel("h", "le", "+Inf"); got != `h{le="+Inf"}` {
		t.Fatalf("withLabel bare = %q", got)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines — metric
// creation races, counter/gauge CAS loops, histogram observes — and is the
// package's main `go test -race` target.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared_total").Inc()
				r.Counter(Label("per_worker_total", "w", string(rune('a'+w)))).Inc()
				r.Gauge("level").Set(float64(i))
				r.Histogram("sizes", []float64{1, 10, 100}).Observe(float64(i % 7))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != workers*iters {
		t.Fatalf("shared_total = %g, want %d", got, workers*iters)
	}
	if got := r.Histogram("sizes", nil).Count(); got != workers*iters {
		t.Fatalf("sizes count = %d, want %d", got, workers*iters)
	}
	for w := 0; w < workers; w++ {
		name := Label("per_worker_total", "w", string(rune('a'+w)))
		if got := r.Counter(name).Value(); got != iters {
			t.Fatalf("%s = %g, want %d", name, got, iters)
		}
	}
	// Rendering while idle must include every family exactly once.
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "# TYPE per_worker_total counter"); n != 1 {
		t.Fatalf("per_worker_total TYPE header appears %d times", n)
	}
}

// TestRegistryReadDuringRegistration pits Snapshot/Summary/WriteTo against
// concurrent first-use registrations — regression for the map race Snapshot
// had when it aliased the live maps instead of copying under the lock.
func TestRegistryReadDuringRegistration(t *testing.T) {
	r := NewRegistry()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				r.Counter(Label("reg_total", "w", string(rune('a'+w)), "i", string(rune('A'+i%26)))).Inc()
				r.Gauge(Label("reg_level", "w", string(rune('a'+w)))).Set(float64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			r.Snapshot()
			r.Summary()
			r.WriteTo(io.Discard)
		}
	}()
	writers.Wait()
	close(done)
	reader.Wait()
}

func TestRegistryWriteTo(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("runs_total", "sim", "ode")).Add(3)
	r.Gauge("wall_seconds").Set(0.25)
	h := r.Histogram("step", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	var sb strings.Builder
	n, err := r.WriteTo(&sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if int64(len(out)) != n {
		t.Fatalf("WriteTo returned %d, wrote %d bytes", n, len(out))
	}
	for _, want := range []string{
		"# TYPE runs_total counter",
		`runs_total{sim="ode"} 3`,
		"# TYPE wall_seconds gauge",
		"wall_seconds 0.25",
		"# TYPE step histogram",
		`step_bucket{le="0.1"} 1`,
		`step_bucket{le="1"} 2`,
		`step_bucket{le="+Inf"} 2`,
		"step_sum 0.55",
		"step_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistrySnapshotAndSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(2)
	r.Gauge("g").Set(-1)
	h := r.Histogram("h", []float64{1})
	h.Observe(2)
	h.Observe(4)
	snap := r.Snapshot()
	want := map[string]float64{"c_total": 2, "g": -1, "h_count": 2, "h_sum": 6, "h_mean": 3}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("Snapshot[%q] = %g, want %g", k, snap[k], v)
		}
	}
	sum := r.Summary()
	for _, wantLine := range []string{"c_total", "g", "n=2"} {
		if !strings.Contains(sum, wantLine) {
			t.Errorf("Summary missing %q:\n%s", wantLine, sum)
		}
	}
}

// TestRegistryObserver feeds a full simulated run through the adapter and
// checks the standard metric families come out.
func TestRegistryObserver(t *testing.T) {
	r := NewRegistry()
	o := NewRegistryObserver(r)
	o.OnSimStart(SimStart{Sim: "ssa", T0: 0, T1: 10,
		Species: []string{"X", "Y"}, Reactions: []string{"decay", "grow"}})
	o.OnClockEdge(ClockEdge{T: 3, Species: "X", Rising: true})
	o.OnClockEdge(ClockEdge{T: 3.5, Species: "Y", Rising: true})
	o.OnClockEdge(ClockEdge{T: 4, Species: "X", Rising: false})
	o.OnPhaseChange(PhaseChange{T: 3, From: "", To: "red"})
	o.OnPhaseChange(PhaseChange{T: 4, From: "red", To: "green"})
	o.OnAlert(Alert{T: 5, Rule: "period_jitter", Subject: "X"})
	o.OnSimEnd(SimEnd{Sim: "ssa", T: 10, Steps: 42, WallSeconds: 0.5, Err: "boom",
		Kernel: KernelStats{FenwickSelects: 42, TightLoops: 1}})
	o.OnSimStart(SimStart{Sim: "ode", T1: 10})
	o.OnSimEnd(SimEnd{Sim: "ode", T: 10, Steps: 100,
		ODE: ODEStats{Solver: "auto", Rejected: 7, Evals: 700}})

	snap := r.Snapshot()
	checks := map[string]float64{
		`sim_runs_total{sim="ssa"}`:                1,
		`clock_edges_total{dir="rise"}`:            2,
		`clock_edges_total{dir="fall"}`:            1,
		"phase_changes_total":                      2,
		`clock_alerts_total{rule="period_jitter"}`: 1,
		`sim_steps_total{sim="ssa"}`:               42,
		`sim_wall_seconds{sim="ssa"}`:              0.5,
		`sim_errors_total{sim="ssa"}`:              1,
		`kernel_selects_total{mode="fenwick"}`:     42,
		`kernel_ssa_loops_total{loop="tight"}`:     1,
		`sim_runs_total{sim="ode"}`:                1,
		`sim_steps_total{sim="ode"}`:               100,
		`sim_wall_seconds{sim="ode"}`:              0,
		"ode_steps_rejected_total":                 7,
		`ode_solver_runs_total{solver="auto"}`:     1,
	}
	for k, v := range checks {
		if snap[k] != v {
			t.Errorf("Snapshot[%q] = %g, want %g", k, snap[k], v)
		}
	}
	// Only the checked series exist: no label value comes from a species,
	// reaction or phase name.
	if len(snap) != len(checks) {
		t.Errorf("registry holds %d series, want %d: %v", len(snap), len(checks), snap)
	}
}

// TestExpositionEscaping drives hostile label values and raw metric names
// through the full WriteTo path and checks the output stays one sample per
// line with exposition-format escapes, for every metric kind.
func TestExpositionEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("c_total", "rxn", "a\"b\\c\nd")).Inc()
	r.Gauge(Label("g", "k", "line1\nline2")).Set(2)
	r.Histogram(Label("h", "k", "q\"x"), []float64{1}).Observe(0.5)
	// A raw newline smuggled into a directly-registered name must not split
	// the sample line.
	r.Counter("bad\nname_total").Inc()
	r.Counter("worse{l=\"v\n2\"}").Inc()

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("empty line in exposition:\n%s", out)
		}
		if !strings.HasPrefix(line, "# ") && !strings.ContainsRune(line, ' ') {
			t.Fatalf("sample line without value separator (split by raw newline?): %q", line)
		}
	}
	for _, want := range []string{
		`c_total{rxn="a\"b\\c\nd"} 1`,
		`g{k="line1\nline2"} 2`,
		`h_count{k="q\"x"} 1`,
		"bad_name_total 1",
		`worse{l="v\n2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestLabelOddPair: a trailing key without a value renders with an empty
// value instead of being silently dropped.
func TestLabelOddPair(t *testing.T) {
	if got, want := Label("m", "a", "1", "b"), `m{a="1",b=""}`; got != want {
		t.Errorf("Label odd kv = %q, want %q", got, want)
	}
}

// TestSanitizeName pins the repair rules for names registered outside Label.
func TestSanitizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"clean_total", "clean_total"},
		{`ok{a="b"}`, `ok{a="b"}`},
		{"a\nb", "a_b"},
		{"a\rb", "a_b"},
		{"m{l=\"x\ny\"}", `m{l="x\ny"}`},
		{"m{l=\"x\"}\ntail", `m{l="x"}_tail`},
	}
	for _, c := range cases {
		if got := sanitizeName(c.in); got != c.want {
			t.Errorf("sanitizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
