package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestRunAgainstInProcessServer drives the generator against a real handler:
// the request budget is honored, both classes appear at the configured mix,
// no request errors, and the sweep point accounting adds up.
func TestRunAgainstInProcessServer(t *testing.T) {
	srv := httptest.NewServer(server.New(server.Config{}).Handler())
	defer srv.Close()

	c := config{
		target:      srv.URL,
		duration:    time.Minute, // requests bound stops first
		requests:    24,
		concurrency: 3,
		mix:         0.25,
		sweepPoints: 6,
		seed:        7,
		timeout:     30 * time.Second,
	}
	rep, err := run(context.Background(), c)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.TotalRequests != 24 {
		t.Fatalf("TotalRequests = %d, want 24", rep.TotalRequests)
	}
	if rep.Simulate.Errors != 0 || rep.Sweep.Errors != 0 {
		t.Fatalf("errors: simulate=%d sweep=%d", rep.Simulate.Errors, rep.Sweep.Errors)
	}
	if rep.Simulate.Count == 0 || rep.Sweep.Count == 0 {
		t.Fatalf("mix produced no spread: simulate=%d sweep=%d", rep.Simulate.Count, rep.Sweep.Count)
	}
	if rep.SweepPoints != rep.Sweep.Count*c.sweepPoints {
		t.Fatalf("SweepPoints = %d, want %d sweeps x %d points",
			rep.SweepPoints, rep.Sweep.Count, c.sweepPoints)
	}
	for _, st := range []classStats{rep.Simulate, rep.Sweep} {
		if st.P50Ms > st.P90Ms || st.P90Ms > st.P99Ms || st.P99Ms > st.MaxMs {
			t.Fatalf("percentiles out of order: %+v", st)
		}
	}

	// The same seed replays the same class sequence.
	rep2, err := run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Sweep.Count != rep.Sweep.Count {
		t.Fatalf("seeded mix not reproducible: %d vs %d sweeps", rep2.Sweep.Count, rep.Sweep.Count)
	}
}

// TestLoadLandsInMetrics: every simulate request the generator reports is
// one the server counted in http_requests_total, the counter a /metrics
// scraper alerts on.
func TestLoadLandsInMetrics(t *testing.T) {
	s := server.New(server.Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	c := config{
		target:      srv.URL,
		duration:    time.Minute,
		requests:    30,
		concurrency: 2,
		mix:         0, // pure simulate traffic keeps this fast
		seed:        3,
		timeout:     30 * time.Second,
	}
	rep, err := run(context.Background(), c)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	key := obs.Label("http_requests_total", "route", "POST /v1/simulate", "code", "200")
	if got := s.Registry().Snapshot()[key]; got != float64(rep.Simulate.Count) || got != 30 {
		t.Fatalf("%s = %g, loadgen reported %d simulate requests, want 30", key, got, rep.Simulate.Count)
	}
}

// TestRunUnreachableTarget: a dead target yields an error, not a zero report.
func TestRunUnreachableTarget(t *testing.T) {
	c := config{
		target:      "http://127.0.0.1:1", // reserved port, nothing listens
		duration:    200 * time.Millisecond,
		requests:    3,
		concurrency: 1,
		timeout:     time.Second,
	}
	rep, err := run(context.Background(), c)
	if err == nil && rep.Simulate.Errors+rep.Sweep.Errors == 0 {
		t.Fatalf("unreachable target reported success: %+v", rep)
	}
}
