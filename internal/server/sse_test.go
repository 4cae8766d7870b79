package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

// sseReader incrementally parses text/event-stream frames off a live response.
type sseReader struct {
	sc *bufio.Scanner
}

func newSSEReader(body *bufio.Scanner) *sseReader { return &sseReader{sc: body} }

// next blocks until one complete SSE frame arrives (comments and the retry
// hint are skipped) and returns its event name and decoded data object.
func (r *sseReader) next(t testing.TB) (string, obs.StreamEvent) {
	t.Helper()
	var kind, data string
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case line == "":
			if kind == "" && data == "" {
				continue // separator after the retry hint or a comment
			}
			var ev obs.StreamEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			return kind, ev
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	t.Fatalf("SSE stream ended early (scan err %v)", r.sc.Err())
	return "", obs.StreamEvent{}
}

// openSSE connects to an SSE endpoint on a live test server and returns the
// frame reader plus the response for header checks.
func openSSE(t testing.TB, url string) (*sseReader, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != 200 {
		t.Fatalf("SSE connect: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("SSE content type %q", ct)
	}
	return newSSEReader(bufio.NewScanner(resp.Body)), resp
}

// slowSweep is a four-point ODE sweep of the clock whose points each take
// tens of milliseconds on one worker — long enough for an SSE client that
// connects right after submission to observe progress mid-run.
func slowSweep(t testing.TB) JobRequest {
	return JobRequest{CRN: clockText(t), TEnd: 150, Fast: 300, Slow: 1, Runs: 4}
}

// TestJobEventsSSE is the streaming acceptance test: submit a sweep, connect
// to /v1/jobs/{id}/events while it runs, and require a job_status snapshot,
// at least one live job_progress event with done < total, and a terminal
// job_done whose counters match the final job status. Afterwards the exported
// trace must show the HTTP request span parenting the job span, which parents
// one batch.job span per point carrying queue-wait and duration attributes,
// each parenting a sim span.
func TestJobEventsSSE(t *testing.T) {
	s := New(Config{MaxConcurrentSims: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, err := json.Marshal(slowSweep(t))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	traceparent := resp.Header.Get("traceparent")
	tid, _, err := span.ParseTraceparent(traceparent)
	if err != nil {
		t.Fatalf("submit traceparent %q: %v", traceparent, err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}

	r, _ := openSSE(t, srv.URL+"/v1/jobs/"+st.ID+"/events")
	kind, first := r.next(t)
	if kind != "job_status" || first.Job != st.ID {
		t.Fatalf("first frame = %s %+v, want job_status", kind, first)
	}

	progress, done := 0, false
	var last obs.StreamEvent
	for !done {
		kind, ev := r.next(t)
		switch kind {
		case "job_progress":
			d, tot := ev.Data["done"].(float64), ev.Data["total"].(float64)
			if d < tot {
				progress++ // a mid-run observation, not the final point
			}
			if ev.Job != st.ID {
				t.Fatalf("progress for wrong job: %+v", ev)
			}
		case "job_done":
			last, done = ev, true
		case "clock_edge", "phase_change", "alert", "job_status":
			// legal interleavings, not what this test pins
		default:
			t.Fatalf("unexpected SSE kind %q: %+v", kind, ev)
		}
	}
	if progress == 0 {
		t.Fatal("no mid-run job_progress event observed")
	}
	if last.Data["state"] != "done" || last.Data["total"].(float64) != 4 {
		t.Fatalf("job_done payload = %+v", last.Data)
	}

	// The trace: poll the span store until the asynchronous job span has
	// landed, then verify the parent/child chain and the timing attributes.
	deadline := time.Now().Add(10 * time.Second)
	var spans []*span.Data
	for {
		spans = s.Tracer().Store().Trace(tid)
		if len(spans) >= 10 { // root + job + 4 batch.job + 4 sim
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s has %d spans, want >= 10", tid, len(spans))
		}
		time.Sleep(5 * time.Millisecond)
	}
	byID := map[span.SpanID]*span.Data{}
	byName := map[string][]*span.Data{}
	for _, sp := range spans {
		byID[sp.SpanID] = sp
		key := sp.Name
		if strings.HasPrefix(key, "batch.job[") {
			key = "batch.job"
		}
		byName[key] = append(byName[key], sp)
	}
	root := byName["HTTP POST /v1/jobs"]
	if len(root) != 1 || !root[0].ParentID.IsZero() {
		t.Fatalf("HTTP root span: %+v", root)
	}
	jobSpans := byName["job "+st.ID]
	if len(jobSpans) != 1 || jobSpans[0].ParentID != root[0].SpanID {
		t.Fatalf("job span not parented under the HTTP span: %+v", jobSpans)
	}
	if len(byName["batch.job"]) != 4 || len(byName["sim.ode"]) != 4 {
		t.Fatalf("per-point spans: %d batch, %d sim", len(byName["batch.job"]), len(byName["sim.ode"]))
	}
	for _, sp := range byName["batch.job"] {
		if sp.ParentID != jobSpans[0].SpanID {
			t.Fatalf("batch span %s not under the job span", sp.Name)
		}
		attrs := map[string]bool{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = true
		}
		if !attrs["job.queue_wait_seconds"] || !attrs["job.seconds"] {
			t.Fatalf("batch span %s missing timing attrs: %+v", sp.Name, sp.Attrs)
		}
	}
	for _, sp := range byName["sim.ode"] {
		parent, ok := byID[sp.ParentID]
		if !ok || !strings.HasPrefix(parent.Name, "batch.job[") {
			t.Fatalf("sim span parented under %q", parent.Name)
		}
	}
}

// TestJobEventsFinishedJob: connecting after completion yields the snapshot
// (terminal state) followed immediately by job_done, then the stream closes.
func TestJobEventsFinishedJob(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	rec := do(t, s.Handler(), "POST", "/v1/jobs", quickJob())
	if rec.Code != 202 {
		t.Fatalf("submit status %d", rec.Code)
	}
	id := decode[JobStatus](t, rec).ID
	pollJob(t, s.Handler(), id)

	r, _ := openSSE(t, srv.URL+"/v1/jobs/"+id+"/events")
	kind, ev := r.next(t)
	if kind != "job_status" || ev.Data["state"] != "done" {
		t.Fatalf("snapshot = %s %+v", kind, ev)
	}
	kind, ev = r.next(t)
	if kind != "job_done" || ev.Data["total"].(float64) != 4 {
		t.Fatalf("terminal frame = %s %+v", kind, ev)
	}
}

// TestJobEventsUnknownJob: the events endpoint 404s like the status endpoint.
func TestJobEventsUnknownJob(t *testing.T) {
	s := New(Config{})
	rec := do(t, s.Handler(), "GET", "/v1/jobs/job-424242/events", nil)
	if rec.Code != 404 || decode[errorBody](t, rec).Error.Code != CodeNotFound {
		t.Fatalf("status %d body %s", rec.Code, rec.Body.String())
	}
}

// TestStreamSSE: the firehose relays job events with the requested kind
// filter applied and keeps running across jobs until the client leaves.
func TestStreamSSE(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	r, resp := openSSE(t, srv.URL+"/v1/stream?kind=job_progress,job_done")
	// The firehose only ends on client disconnect; close before srv.Close()
	// (which waits for open handlers) runs in its deferred position.
	defer resp.Body.Close()
	rec := do(t, s.Handler(), "POST", "/v1/jobs", quickJob())
	if rec.Code != 202 {
		t.Fatalf("submit status %d", rec.Code)
	}
	id := decode[JobStatus](t, rec).ID

	seen := 0
	for {
		kind, ev := r.next(t)
		if kind != "job_progress" && kind != "job_done" {
			t.Fatalf("kind filter leaked %q: %+v", kind, ev)
		}
		if ev.Job != id {
			t.Fatalf("event for unexpected job: %+v", ev)
		}
		seen++
		if kind == "job_done" {
			break
		}
	}
	if seen < 2 { // at least one progress frame plus job_done
		t.Fatalf("only %d frames before job_done", seen)
	}
}

// TestStreamSlowSubscriberDrops pins the broker's drop policy end to end:
// a stalled subscriber loses events instead of stalling publishers, the
// losses are counted in sse_events_dropped_total, and a client that
// reconnects afterwards sees the loss as a gap in the SSE id sequence —
// including for alert events, which share the same firehose.
func TestStreamSlowSubscriberDrops(t *testing.T) {
	s := New(Config{EventBuffer: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	alertEv := func() obs.StreamEvent {
		return obs.StreamEvent{Kind: "alert", Time: time.Now(),
			Data: map[string]any{"rule": "clock-alert-burst", "state": "firing"}}
	}

	// publishUntil keeps publishing until the reader delivers a frame (the
	// handler subscribes only after the headers are flushed, so a single
	// publish can slip into that window) and waits for the publisher to
	// settle before returning, so later drop counts are exact.
	publishUntil := func(r *sseReader) obs.StreamEvent {
		t.Helper()
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				s.Broker().Publish(alertEv())
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
		}()
		kind, ev := r.next(t)
		close(stop)
		<-done
		if kind != "alert" || ev.Seq == 0 {
			t.Fatalf("frame = %s %+v", kind, ev)
		}
		return ev
	}

	// First connection: observe one frame, note its id, then "stall" — we
	// stand in for the stalled HTTP connection with a broker subscriber
	// that is never drained (the exact code path the SSE handlers use),
	// because a live socket hides the stall in kernel buffers.
	r1, resp1 := openSSE(t, srv.URL+"/v1/stream?kind=alert")
	first := publishUntil(r1)
	resp1.Body.Close() // client goes away mid-incident

	stalled := s.Broker().Subscribe(1, nil)
	defer stalled.Close()
	dropsBefore := s.Registry().Snapshot()["sse_events_dropped_total"]
	for i := 0; i < 5; i++ {
		s.Broker().Publish(alertEv())
	}
	// Buffer of 1: the first burst event is buffered, the rest are dropped.
	if got := stalled.Dropped(); got != 4 {
		t.Fatalf("stalled subscriber dropped %d events, want 4", got)
	}
	if got := s.Registry().Snapshot()["sse_events_dropped_total"]; got < dropsBefore+4 {
		t.Fatalf("sse_events_dropped_total = %g, want >= %g", got, dropsBefore+4)
	}

	// The reconnecting client: its first frame's id has jumped past the
	// whole lost burst, so the gap is visible without any server help.
	r2, resp2 := openSSE(t, srv.URL+"/v1/stream?kind=alert")
	defer resp2.Body.Close()
	ev := publishUntil(r2)
	if ev.Seq <= first.Seq+1 {
		t.Fatalf("id after reconnect = %d, want a gap past %d", ev.Seq, first.Seq)
	}
}

// TestStreamDrainCloses: StartDrain must terminate open firehose streams so
// graceful shutdown is not held hostage by idle SSE clients.
func TestStreamDrainCloses(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	s.StartDrain()
	closed := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("stream still open 5s after StartDrain")
	}
}

// TestClockHealthJobValidation: a clock_health spec naming unknown species
// must be rejected at submission, before any sweep point runs.
func TestClockHealthJobValidation(t *testing.T) {
	s := New(Config{})
	rec := do(t, s.Handler(), "POST", "/v1/jobs", JobRequest{
		CRN: "init X = 1\nX -> Y : slow", TEnd: 2, Runs: 1,
		ClockHealth: &ClockHealthSpec{
			Phases:    [][]string{{"X"}, {"ghost"}},
			Threshold: 0.5,
		},
	})
	if rec.Code != 400 || decode[errorBody](t, rec).Error.Code != CodeInvalidRequest {
		t.Fatalf("status %d body %s", rec.Code, rec.Body.String())
	}
}

// clockHealthJob is a 4-run clock sweep with the clock-health analyzer
// attached. Threshold 0.4 counts both red and green as occupied through
// every R→G hand-off (where R+G ≈ 1), so overlap episodes recur across the
// whole run and a client connecting shortly after submit sees them live.
func clockHealthJob(t testing.TB) JobRequest {
	return JobRequest{
		CRN: clockText(t), TEnd: 150, Fast: 300, Slow: 1, Runs: 4,
		ClockHealth: &ClockHealthSpec{
			Phases:    [][]string{{"clk.CR"}, {"clk.CG"}},
			Names:     []string{"red", "green"},
			Threshold: 0.4,
			MaxJitter: -1, // hand-off detection at 0.4 is not a period probe
		},
	}
}

// TestClockHealthJobAlertStream: a job carrying a clock_health spec tuned to
// trip (threshold so low that both species count as occupied at once) must
// push alert events over SSE, count them in /metrics, and leave each run's
// verdict in its trace as alert events on the run's sim span.
func TestClockHealthJobAlertStream(t *testing.T) {
	s := New(Config{MaxConcurrentSims: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	rec := do(t, s.Handler(), "POST", "/v1/jobs", clockHealthJob(t))
	if rec.Code != 202 {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}
	id := decode[JobStatus](t, rec).ID
	tid, _, err := span.ParseTraceparent(rec.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("submit traceparent: %v", err)
	}

	r, _ := openSSE(t, srv.URL+"/v1/jobs/"+id+"/events")
	sawAlert := false
	for {
		kind, ev := r.next(t)
		if kind == "alert" {
			if ev.Data["rule"] == "phase_overlap" {
				sawAlert = true
			}
		}
		if kind == "job_done" {
			break
		}
	}
	if !sawAlert {
		t.Fatal("no phase_overlap alert reached the SSE stream")
	}
	key := obs.Label("clock_alerts_total", "rule", "phase_overlap")
	if got := s.Registry().Snapshot()[key]; got < 1 {
		t.Fatalf("%s = %g, want >= 1", key, got)
	}

	// The trace export: every one of the job's four sim.ode spans carries
	// at least one phase_overlap alert event.
	type otlpTrace struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					Name   string `json:"name"`
					Events []struct {
						Name       string `json:"name"`
						Attributes []struct {
							Key   string `json:"key"`
							Value struct {
								StringValue string `json:"stringValue"`
							} `json:"value"`
						} `json:"attributes"`
					} `json:"events"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	// Every sim span ends inside RunMany, before job_done is published.
	rec = do(t, s.Handler(), "GET", "/debug/tracez?trace="+tid.String(), nil)
	if rec.Code != 200 {
		t.Fatalf("tracez status %d: %s", rec.Code, rec.Body.String())
	}
	var overlaps []int // phase_overlap alert events per sim.ode span
	for _, rs := range decode[otlpTrace](t, rec).ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				if sp.Name != "sim.ode" {
					continue
				}
				n := 0
				for _, ev := range sp.Events {
					for _, a := range ev.Attributes {
						if ev.Name == "alert" && a.Key == "rule" && a.Value.StringValue == "phase_overlap" {
							n++
						}
					}
				}
				overlaps = append(overlaps, n)
			}
		}
	}
	if len(overlaps) != 4 {
		t.Fatalf("trace %s holds %d sim.ode spans, want 4", tid, len(overlaps))
	}
	for i, n := range overlaps {
		if n == 0 {
			t.Errorf("sim.ode span %d has no phase_overlap alert event (per span: %v)", i, overlaps)
		}
	}
}

// TestServerTimingHeader: /v1/simulate reports its phase split — cache miss
// with queue and sim durations, then a pure cache hit.
func TestServerTimingHeader(t *testing.T) {
	s := New(Config{})
	req := SimulateRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 2}

	miss := do(t, s.Handler(), "POST", "/v1/simulate", req)
	st := miss.Header().Get("Server-Timing")
	if !strings.Contains(st, "cache;desc=miss") ||
		!strings.Contains(st, "queue;dur=") || !strings.Contains(st, "sim;dur=") {
		t.Fatalf("miss Server-Timing = %q", st)
	}
	if ct := miss.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("miss content type %q", ct)
	}

	hit := do(t, s.Handler(), "POST", "/v1/simulate", req)
	if st := hit.Header().Get("Server-Timing"); !strings.Contains(st, "cache;desc=hit") {
		t.Fatalf("hit Server-Timing = %q", st)
	}

	// Error envelopes carry the charset too.
	bad := do(t, s.Handler(), "POST", "/v1/simulate", "{nope")
	if ct := bad.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("error content type %q", ct)
	}
}

// TestTracez: the summary view lists retained traces; ?trace= exports one as
// OTLP/JSON; bad and unknown ids produce the structured error envelope.
func TestTracez(t *testing.T) {
	s := New(Config{})
	rec := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		CRN: "init X = 1\nX -> Y : slow", TEnd: 2,
	})
	if rec.Code != 200 {
		t.Fatalf("simulate status %d", rec.Code)
	}
	tid, _, err := span.ParseTraceparent(rec.Header().Get("traceparent"))
	if err != nil {
		t.Fatal(err)
	}

	sum := do(t, s.Handler(), "GET", "/debug/tracez", nil)
	if sum.Code != 200 {
		t.Fatalf("tracez status %d", sum.Code)
	}
	view := decode[struct {
		Retained int                 `json:"spans_retained"`
		Total    int                 `json:"spans_total"`
		Recent   []span.TraceSummary `json:"recent"`
		Slowest  []span.TraceSummary `json:"slowest"`
	}](t, sum)
	if view.Retained < 1 || view.Total < view.Retained || len(view.Recent) == 0 {
		t.Fatalf("tracez view = %+v", view)
	}
	found := false
	for _, tr := range view.Recent {
		if tr.TraceID == tid {
			found = true
			if tr.Root != "HTTP POST /v1/simulate" || tr.Spans < 2 {
				t.Fatalf("trace summary = %+v", tr)
			}
		}
	}
	if !found {
		t.Fatalf("simulate trace %s not in recent list", tid)
	}

	otlp := do(t, s.Handler(), "GET", "/debug/tracez?trace="+tid.String(), nil)
	if otlp.Code != 200 {
		t.Fatalf("OTLP export status %d: %s", otlp.Code, otlp.Body.String())
	}
	if ct := otlp.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("OTLP content type %q", ct)
	}
	body := otlp.Body.String()
	for _, want := range []string{`"resourceSpans"`, `"scopeSpans"`, tid.String(), "HTTP POST /v1/simulate"} {
		if !strings.Contains(body, want) {
			t.Fatalf("OTLP export missing %q:\n%s", want, body)
		}
	}

	if rec := do(t, s.Handler(), "GET", "/debug/tracez?trace=zz", nil); rec.Code != 400 {
		t.Fatalf("bad id status %d", rec.Code)
	}
	unknown := "0123456789abcdef0123456789abcdef"
	if rec := do(t, s.Handler(), "GET", "/debug/tracez?trace="+unknown, nil); rec.Code != 404 {
		t.Fatalf("unknown id status %d", rec.Code)
	}
	if rec := do(t, s.Handler(), "GET", "/debug/tracez?n=bogus", nil); rec.Code != 400 {
		t.Fatalf("bad n status %d", rec.Code)
	}
}

// TestJobsEvictedMetric: retiring finished jobs past RetainJobs ticks
// jobs_evicted_total.
func TestJobsEvictedMetric(t *testing.T) {
	s := New(Config{RetainJobs: 1})
	for i := 0; i < 3; i++ {
		rec := do(t, s.Handler(), "POST", "/v1/jobs", quickJob())
		if rec.Code != 202 {
			t.Fatalf("submit %d status %d", i, rec.Code)
		}
		pollJob(t, s.Handler(), decode[JobStatus](t, rec).ID)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Registry().Snapshot()["jobs_evicted_total"] >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs_evicted_total = %g, want >= 2",
				s.Registry().Snapshot()["jobs_evicted_total"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
