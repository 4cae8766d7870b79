package flight

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCaptureSnapshotsEventsSpansAndSeries(t *testing.T) {
	reg := obs.NewRegistry()
	broker := obs.NewBroker()
	tracer := span.NewTracer(64)
	store := tracer.Store()
	db := tsdb.New(reg, tsdb.Options{Step: time.Second, Retention: time.Minute})

	reg.Counter(obs.Label("clock_alerts_total", "rule", "phase_overlap")).Add(3)
	reg.Counter("proc_gc_total").Add(2)
	db.Poll()

	sp := tracer.Root("sim.ssa")
	sp.SetAttr("job.id", "j1")
	sp.End()

	dir := t.TempDir()
	r := New(Options{
		Broker: broker, Spans: store, DB: db, Dir: dir,
		MaxCapsules: 2, MaxEvents: 8,
		Extra: []string{"proc_*"},
	})
	r.Start()
	defer r.Stop()

	broker.Publish(obs.StreamEvent{Kind: "job_progress", Job: "j1"})
	broker.Publish(obs.StreamEvent{Kind: "alert", Data: map[string]any{"rule": "clock-alert-burst"}})
	waitFor(t, "events buffered", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.evNext >= 2 || r.evFull
	})

	c := r.Capture(Trigger{
		Rule: "clock-alert-burst", State: "firing", Severity: "warn",
		Value: 1, Threshold: 1,
		Inputs: []string{"clock_alerts_total{*}"},
	})
	if c == nil {
		t.Fatal("Capture returned nil")
	}
	if len(c.Events) != 2 || c.Events[0].Kind != "job_progress" || c.Events[1].Kind != "alert" {
		t.Fatalf("capsule events = %+v", c.Events)
	}
	if len(c.Spans) != 1 || c.Spans[0].Name != "sim.ssa" {
		t.Fatalf("capsule spans = %+v", c.Spans)
	}
	names := c.SeriesNames()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found[`clock_alerts_total{rule="phase_overlap"}`] || !found["proc_gc_total"] {
		t.Fatalf("capsule series = %v, want clock alert series + proc extra", names)
	}

	// Persistence: one JSON file per capsule, loadable.
	b, err := os.ReadFile(filepath.Join(dir, c.ID+".json"))
	if err != nil {
		t.Fatalf("persisted capsule: %v", err)
	}
	var loaded Capsule
	if err := json.Unmarshal(b, &loaded); err != nil {
		t.Fatalf("persisted capsule decode: %v", err)
	}
	if loaded.ID != c.ID || loaded.Trigger.Rule != "clock-alert-burst" {
		t.Fatalf("persisted capsule = %+v", loaded.Trigger)
	}

	// Retrieval API.
	got, ok := r.Get(c.ID)
	if !ok || got.ID != c.ID {
		t.Fatalf("Get(%s) = %v, %v", c.ID, got, ok)
	}
	if lst := r.List(); len(lst) != 1 || lst[0].Rule != "clock-alert-burst" || lst[0].Events != 2 {
		t.Fatalf("List = %+v", lst)
	}
}

func TestCapsuleEviction(t *testing.T) {
	r := New(Options{MaxCapsules: 2})
	a := r.Capture(Trigger{Rule: "a", State: "firing"})
	r.Capture(Trigger{Rule: "b", State: "firing"})
	c := r.Capture(Trigger{Rule: "c", State: "firing"})
	if _, ok := r.Get(a.ID); ok {
		t.Fatal("oldest capsule not evicted")
	}
	lst := r.List()
	if len(lst) != 2 || lst[0].ID != c.ID {
		t.Fatalf("List after eviction = %+v", lst)
	}
}

func TestEventRingWraps(t *testing.T) {
	broker := obs.NewBroker()
	r := New(Options{Broker: broker, MaxEvents: 4})
	r.Start()
	defer r.Stop()
	// Publish one at a time so the broker's non-blocking drop policy can't
	// race the buffering goroutine.
	for i := 1; i <= 10; i++ {
		broker.Publish(obs.StreamEvent{Kind: "k"})
		seq := uint64(i)
		waitFor(t, "event buffered", func() bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			for _, ev := range r.events {
				if ev.Seq == seq {
					return true
				}
			}
			return false
		})
	}
	c := r.Capture(Trigger{Rule: "r", State: "firing"})
	if len(c.Events) != 4 || c.Events[0].Seq != 7 || c.Events[3].Seq != 10 {
		seqs := make([]uint64, len(c.Events))
		for i, ev := range c.Events {
			seqs[i] = ev.Seq
		}
		t.Fatalf("wrapped ring seqs = %v, want [7 8 9 10]", seqs)
	}
}

func TestNilRecorderAndStopIdempotent(t *testing.T) {
	var r *Recorder
	if r.Capture(Trigger{}) != nil || r.List() != nil {
		t.Fatal("nil recorder produced results")
	}
	if _, ok := r.Get("x"); ok {
		t.Fatal("nil recorder Get ok")
	}
	r.Start()
	r.Stop()

	r2 := New(Options{Broker: obs.NewBroker()})
	r2.Start()
	r2.Start()
	r2.Stop()
	r2.Stop()
}
