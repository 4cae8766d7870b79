package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestServeEndToEnd boots the daemon on an ephemeral port with the debug
// listener enabled, walks the API over a real TCP connection — simulate,
// job lifecycle, metrics, pprof, tracez, health — and then exercises
// graceful shutdown via context cancellation.
func TestServeEndToEnd(t *testing.T) {
	o := options{
		addr:         "127.0.0.1:0",
		debugAddr:    "127.0.0.1:0",
		maxBody:      1 << 20,
		maxSpecies:   4096,
		maxReactions: 16384,
		maxSweep:     4096,
		maxJobs:      64,
		cacheSize:    16,
		simTimeout:   30 * time.Second,
		drainTimeout: 5 * time.Second,
		retainJobs:   8,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	debugReady := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(ctx, o, ready, debugReady) }()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case err := <-serveErr:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	var debugBase string
	select {
	case addr := <-debugReady:
		debugBase = "http://" + addr.String()
	case <-time.After(10 * time.Second):
		t.Fatal("debug listener never became ready")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	post := func(path string, body any) (int, string) {
		enc, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", strings.NewReader(string(enc)))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("readyz: %d", code)
	}

	code, body := post("/v1/simulate", map[string]any{
		"crn": "init X = 1\nX -> Y : slow", "t_end": 5,
	})
	if code != 200 {
		t.Fatalf("simulate: %d %s", code, body)
	}
	var simResp struct {
		Final map[string]float64 `json:"final"`
	}
	if err := json.Unmarshal([]byte(body), &simResp); err != nil {
		t.Fatalf("simulate body: %v", err)
	}
	if simResp.Final["Y"] < 0.9 {
		t.Fatalf("X -> Y barely converted by t=5: %v", simResp.Final)
	}

	// A seeded stochastic sweep big enough that its CPU/alloc deltas are
	// reliably nonzero in the attribution counters below.
	code, body = post("/v1/jobs", map[string]any{
		"crn": "init X = 1\nX -> Y : slow", "t_end": 2,
		"method": "ssa", "unit": 2000, "seed": 3, "runs": 8,
	})
	if code != 202 {
		t.Fatalf("job submit: %d %s", code, body)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.State == "queued" || st.State == "running" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
		code, body = get("/v1/jobs/" + st.ID)
		if code != 200 {
			t.Fatalf("job status: %d %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != "done" {
		t.Fatalf("job state %q, want done (%s)", st.State, body)
	}

	code, body = get("/metrics")
	if code != 200 ||
		!strings.Contains(body, "http_requests_total") ||
		!strings.Contains(body, "server_jobs_submitted_total 1") {
		t.Fatalf("metrics: %d\n%s", code, body)
	}
	// Resource attribution: the sweep must have recorded nonzero CPU time,
	// and the SSA kernel must have reported selector counters.
	if !metricPositive(body, `job_cpu_seconds{kind="batch"}`) {
		t.Fatalf("metrics missing nonzero batch job_cpu_seconds:\n%s", body)
	}
	if !strings.Contains(body, `kernel_selects_total{mode="`) {
		t.Fatalf("metrics missing kernel_selects_total:\n%s", body)
	}

	// pprof lives only on the debug listener.
	if code, _ := get("/debug/pprof/cmdline"); code != 404 {
		t.Fatalf("pprof leaked onto the public listener: %d", code)
	}
	dget := func(path string) (int, string) {
		resp, err := http.Get(debugBase + path)
		if err != nil {
			t.Fatalf("GET debug %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := dget("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline: %d %s", code, body)
	}
	if code, body := dget("/debug/tracez"); code != 200 || !strings.Contains(body, `"spans_retained"`) {
		t.Fatalf("debug tracez: %d %s", code, body)
	}
	if code, body := dget("/metrics"); code != 200 || !metricPositive(body, `job_cpu_seconds{kind="batch"}`) {
		t.Fatalf("debug metrics: %d %s", code, body)
	}

	// Graceful shutdown: cancel the serve context and the call must return
	// cleanly within the drain budget.
	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve returned %v on graceful shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not return after context cancellation")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	if _, err := http.Get(debugBase + "/metrics"); err == nil {
		t.Fatal("debug listener still accepting after shutdown")
	}
}

// metricPositive reports whether the exposition text contains the exact
// series and its value parses as > 0.
func metricPositive(exposition, series string) bool {
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		return err == nil && v > 0
	}
	return false
}

// TestServeBadAddr: a listen failure surfaces as an error, not a hang.
func TestServeBadAddr(t *testing.T) {
	o := options{addr: "256.256.256.256:99999"}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := serve(ctx, o, nil, nil); err == nil {
		t.Fatal("serve succeeded on an unusable address")
	}
}

// TestServeBadDebugAddr: a debug listener failure is fatal at startup too —
// silently running without the requested pprof surface would be worse.
func TestServeBadDebugAddr(t *testing.T) {
	o := options{addr: "127.0.0.1:0", debugAddr: "256.256.256.256:99999"}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := serve(ctx, o, nil, nil); err == nil {
		t.Fatal("serve succeeded with an unusable debug address")
	}
}
