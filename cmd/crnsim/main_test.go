package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

const osc = "testdata/oscillator.crn"

// capture runs f with stdout redirected to a pipe and returns what it wrote.
// The pipe is drained concurrently: CSV output easily exceeds the kernel
// pipe buffer and a sequential read would deadlock.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := f()
	os.Stdout = old
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done, runErr
}

func TestODERunCSV(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), osc, options{tEnd: 20, fast: 1000, slow: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "t,") {
		t.Fatalf("no CSV header: %q", out[:40])
	}
	if !strings.Contains(out, "R") {
		t.Fatal("species column missing")
	}
}

func TestODERunPlot(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), osc, options{tEnd: 120, fast: 1000, slow: 1, plot: "R,G,B"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a = R", "b = G", "c = B", "final R"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q", want)
		}
	}
}

func TestSSARun(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), osc, options{tEnd: 10, fast: 500, slow: 1, method: "ssa", unit: 200, seed: 7})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "t,") {
		t.Fatal("SSA CSV missing")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := capture(t, func() error {
		return run(context.Background(), "testdata/missing.crn", options{tEnd: 10, fast: 100, slow: 1})
	}); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := capture(t, func() error {
		return run(context.Background(), osc, options{tEnd: 10, fast: 100, slow: 1, plot: "ghost"})
	}); err == nil {
		t.Fatal("unknown plot species accepted")
	}
	if _, err := capture(t, func() error {
		return run(context.Background(), osc, options{tEnd: 10, fast: 1, slow: 100}) // inverted rates
	}); err == nil {
		t.Fatal("inverted rates accepted")
	}
}

// TestUnusedSpeciesRejected is the regression test for .crn files declaring
// species no reaction uses: a clear error naming the species, not a panic or
// a silent constant-species trace.
func TestUnusedSpeciesRejected(t *testing.T) {
	_, err := capture(t, func() error {
		return run(context.Background(), "testdata/unused_species.crn", options{tEnd: 10, fast: 100, slow: 1})
	})
	if err == nil {
		t.Fatal("file with unused species accepted")
	}
	for _, want := range []string{"Xtra", "Orphan", "used by no reaction"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	// The oscillator file must still pass the check.
	if _, err := loadNetwork(osc); err != nil {
		t.Fatalf("oscillator rejected: %v", err)
	}
}

// promLine matches Prometheus text-format sample and comment lines.
var promLine = regexp.MustCompile(`^(# (TYPE|HELP) .*|[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? [-+0-9eE.infNa]+)$`)

// TestEventsAndMetrics exercises the full instrumentation path on the
// oscillator: the JSONL event log must be valid (one JSON object per line)
// and include clock_edge and phase_change events; the metrics file must
// parse as Prometheus text exposition.
func TestEventsAndMetrics(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	metrics := filepath.Join(dir, "metrics.txt")
	_, err := capture(t, func() error {
		return run(context.Background(), osc, options{tEnd: 120, fast: 1000, slow: 1, events: events, metrics: metrics})
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		kind, _ := rec["event"].(string)
		if kind == "" {
			t.Fatalf("line missing event discriminator: %q", sc.Text())
		}
		kinds[kind]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if kinds["sim_start"] != 1 || kinds["sim_end"] != 1 {
		t.Errorf("want exactly one sim_start and sim_end, got %v", kinds)
	}
	if kinds["clock_edge"] == 0 {
		t.Errorf("no clock_edge events in %v", kinds)
	}
	if kinds["phase_change"] == 0 {
		t.Errorf("no phase_change events in %v", kinds)
	}

	mb, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(mb), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("metrics file suspiciously short: %q", string(mb))
	}
	for _, line := range lines {
		if !promLine.MatchString(line) {
			t.Errorf("line not Prometheus text format: %q", line)
		}
	}
	text := string(mb)
	for _, want := range []string{`sim_steps_total{sim="ode"}`, "ode_steps_rejected_total", `clock_edges_total{dir="rise"}`, "phase_changes_total", "sim_wall_seconds"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTraceJSON runs a short simulation with -trace-json and checks the
// exported file is OTLP-shaped: a root span named for the invocation with a
// child sim span parented under it, both carrying the same trace ID.
func TestTraceJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	_, err := capture(t, func() error {
		return run(context.Background(), osc, options{tEnd: 20, fast: 1000, slow: 1, traces: out})
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file not valid JSON: %v", err)
	}
	if len(doc.ResourceSpans) != 1 {
		t.Fatalf("want one resourceSpans entry, got %d", len(doc.ResourceSpans))
	}
	type flat struct{ traceID, spanID, parent, name string }
	var spans []flat
	for _, ss := range doc.ResourceSpans[0].ScopeSpans {
		for _, s := range ss.Spans {
			spans = append(spans, flat{s.TraceID, s.SpanID, s.ParentSpanID, s.Name})
		}
	}
	if len(spans) < 2 {
		t.Fatalf("want root + sim span, got %d spans", len(spans))
	}
	var root, child *flat
	for i := range spans {
		if spans[i].name == "crnsim "+osc {
			root = &spans[i]
		}
		if strings.HasPrefix(spans[i].name, "sim.") {
			child = &spans[i]
		}
	}
	if root == nil || root.parent != "" {
		t.Fatalf("no parentless root span named %q in %+v", "crnsim "+osc, spans)
	}
	if child == nil {
		t.Fatalf("no sim span in %+v", spans)
	}
	if child.parent != root.spanID {
		t.Errorf("sim span parent = %s, want root %s", child.parent, root.spanID)
	}
	if child.traceID != root.traceID {
		t.Errorf("sim span trace %s != root trace %s", child.traceID, root.traceID)
	}
}

// TestMethodFlag covers the -method values: sim.ParseMethod takes the flag
// verbatim, so its names and aliases are the flag's. The simulators are ode
// and ssa (alias gillespie); any other name is rejected.
func TestMethodFlag(t *testing.T) {
	cases := []struct {
		method string
		want   sim.Method
		ok     bool
	}{
		{"", sim.ODE, true},
		{"ode", sim.ODE, true},
		{"SSA", sim.SSA, true},
		{"gillespie", sim.SSA, true},
		{"tauleap", 0, false},
		{"euler", 0, false},
	}
	for _, c := range cases {
		got, err := sim.ParseMethod(c.method)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("-method %q = %v, %v; want %v", c.method, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("-method %q accepted", c.method)
		}
	}
}

// TestRunInvalidMethod: a bogus -method must fail before touching the file,
// with an error naming the valid simulators.
func TestRunInvalidMethod(t *testing.T) {
	_, err := capture(t, func() error {
		return run(context.Background(), osc, options{tEnd: 10, fast: 100, slow: 1, method: "euler"})
	})
	if err == nil {
		t.Fatal("invalid method accepted")
	}
	for _, want := range []string{"euler", "ode", "ssa"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRunCanceled: a pre-canceled context must abort the simulation with a
// context error instead of producing a full-horizon trace.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := capture(t, func() error {
		return run(ctx, osc, options{tEnd: 120, fast: 1000, slow: 1})
	})
	if err == nil {
		t.Fatal("canceled context produced no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// TestRunTimeout: -timeout bounds the run's wall-clock time; expiry aborts
// the simulation with a message naming the flag and wrapping
// context.DeadlineExceeded (main turns that into a non-zero exit).
func TestRunTimeout(t *testing.T) {
	_, err := capture(t, func() error {
		return run(context.Background(), osc, options{
			tEnd: 1e9, fast: 1000, slow: 1, timeout: 50 * time.Millisecond,
		})
	})
	if err == nil {
		t.Fatal("timeout produced no error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "-timeout") {
		t.Fatalf("error %q does not mention the -timeout flag", err)
	}
}

// TestRunTimeoutAmple: a generous -timeout must not disturb a short run.
func TestRunTimeoutAmple(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), osc, options{
			tEnd: 10, fast: 100, slow: 1, timeout: time.Minute,
		})
	})
	if err != nil {
		t.Fatalf("run failed under an ample timeout: %v", err)
	}
	if !strings.Contains(out, "t,") {
		t.Fatalf("no CSV header in output: %q", out[:min(len(out), 80)])
	}
}
