package server

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/flight"
)

// nextAlertFrame reads one alert frame off the stream without touching the
// testing.T (it runs on a non-test goroutine); ok=false means the stream
// ended. Non-alert frames are skipped.
func nextAlertFrame(r *sseReader) (map[string]any, bool) {
	var kind, data string
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case line == "":
			if kind == "" && data == "" {
				continue
			}
			var ev obs.StreamEvent
			if err := json.Unmarshal([]byte(data), &ev); err == nil && kind == "alert" {
				return ev.Data, true
			}
			kind, data = "", ""
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	return nil, false
}

// TestClockAlertBurstAndFlightCapsule is the acceptance test of the whole
// observability chain on the question "did the chemistry behave?": a
// clock-health sweep raises phase_overlap alerts and, with no test code
// polling any internal state, the server's own machinery must
//
//  1. notice — a clock-alert-burst rule over clock_alerts_total walks
//     pending → firing → resolved, observed purely through the public SSE
//     firehose;
//  2. preserve the evidence — a flight capsule exists at /debug/flightz
//     holding the clock_alerts_total series and the job's own alert
//     events, and its on-disk copy survives.
//
// Everything is time-compressed: a 25ms sampling step, a 250ms rate window
// and a sub-second alert lifecycle.
func TestClockAlertBurstAndFlightCapsule(t *testing.T) {
	flightDir := t.TempDir()
	s := New(Config{
		Workers: 1, MaxConcurrentSims: 1,
		TSDBStep:   25 * time.Millisecond,
		AlertEvery: 25 * time.Millisecond,
		FlightDir:  flightDir,
		Rules: []alert.Rule{{
			Name: "clock-alert-burst", Severity: "warn", Kind: "threshold",
			Metric: "clock_alerts_total{*}", Func: "rate", Agg: "sum",
			Op: ">", Value: 0,
			WindowSeconds: 0.25, ForSeconds: 0.05, KeepSeconds: 0.05,
			Detail: "a sweep raised clock-health alerts",
		}},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// The only observation channel this test allows itself: alert frames
	// off the public firehose, opened before the sweep starts.
	sse, resp := openSSE(t, srv.URL+"/v1/stream?kind=alert")
	defer resp.Body.Close()

	rec := do(t, s.Handler(), "POST", "/v1/jobs", clockHealthJob(t))
	if rec.Code != 202 {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}
	jobID := decode[JobStatus](t, rec).ID

	// The rule lifecycle, exactly as the SSE client tells it. The reader
	// goroutine parses frames itself (no testing.T calls off the test
	// goroutine) and exits when the response body is closed.
	var states []string
	deadline := time.After(15 * time.Second)
	frames := make(chan map[string]any, 16)
	go func() {
		for {
			data, ok := nextAlertFrame(sse)
			if !ok {
				return
			}
			if data["rule"] == "clock-alert-burst" {
				select {
				case frames <- data:
				default:
				}
			}
		}
	}()
	for len(states) == 0 || states[len(states)-1] != "resolved" {
		select {
		case data := <-frames:
			state, _ := data["state"].(string)
			states = append(states, state)
		case <-deadline:
			t.Fatalf("alert lifecycle incomplete after 15s: %v", states)
		}
	}
	if want := []string{"pending", "firing", "resolved"}; len(states) != len(want) ||
		states[0] != want[0] || states[1] != want[1] || states[2] != want[2] {
		t.Fatalf("clock-alert-burst lifecycle = %v, want %v", states, want)
	}
	if st := pollJob(t, s.Handler(), jobID); st.State != "done" {
		t.Fatalf("sweep ended %q (%s)", st.State, st.Error)
	}

	// The flight capsule: captured at the pending→firing edge, served over
	// the debug surface, carrying the rule's input series and the alert
	// events the sweep published.
	lst := decode[struct {
		Capsules []flight.Info `json:"capsules"`
	}](t, do(t, s.DebugHandler(), "GET", "/debug/flightz", nil))
	var capID string
	for _, info := range lst.Capsules {
		if info.Rule == "clock-alert-burst" && info.State == "firing" {
			capID = info.ID
		}
	}
	if capID == "" {
		t.Fatalf("no clock-alert-burst capsule in %+v", lst.Capsules)
	}
	capsule := decode[flight.Capsule](t, do(t, s.DebugHandler(), "GET", "/debug/flightz/"+capID, nil))

	key := obs.Label("clock_alerts_total", "rule", "phase_overlap")
	if len(capsule.Series[key]) == 0 {
		t.Fatalf("capsule lacks %s, has %v", key, capsule.SeriesNames())
	}
	jobAlerts := 0
	for _, ev := range capsule.Events {
		if ev.Kind == "alert" && ev.Job == jobID && ev.Data["rule"] == "phase_overlap" {
			jobAlerts++
		}
	}
	if jobAlerts == 0 {
		kinds := make([]string, 0, len(capsule.Events))
		for _, ev := range capsule.Events {
			kinds = append(kinds, ev.Kind)
		}
		t.Fatalf("capsule lacks the job's phase_overlap alerts, has events %v", kinds)
	}

	// The on-disk copy round-trips to the same capsule.
	raw, err := os.ReadFile(filepath.Join(flightDir, capID+".json"))
	if err != nil {
		t.Fatalf("persisted capsule: %v", err)
	}
	var disk flight.Capsule
	if err := json.Unmarshal(raw, &disk); err != nil {
		t.Fatalf("persisted capsule JSON: %v", err)
	}
	if disk.ID != capID || disk.Trigger.Rule != "clock-alert-burst" ||
		len(disk.Series) != len(capsule.Series) || len(disk.Events) != len(capsule.Events) {
		t.Fatalf("disk capsule %s/%s differs from served capsule %s", disk.ID, disk.Trigger.Rule, capID)
	}

	// tsdb stays alive behind all of it.
	if stats := s.TSDB().DBStats(); stats.Series == 0 || stats.Ticks == 0 {
		t.Fatalf("tsdb idle during the incident: %+v", stats)
	}
}
