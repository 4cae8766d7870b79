// Package flight implements a flight recorder: when an alert rule fires,
// it atomically snapshots the recent past — the last N SSE events, the
// span ring, and the time-series windows feeding the rule — into a
// bounded capsule, so the diagnosis of a misbehaving clock or a failing
// route does not depend on someone having been watching the dashboards.
//
// The recorder is deliberately decoupled from the alert engine: it
// defines its own Trigger type and the server glues the engine's
// OnTransition hook to Capture. Capsules are kept in a bounded in-memory
// ring and, when Dir is set, also persisted as one JSON file each — the
// on-disk copy survives the process, the in-memory copy serves
// GET /debug/flightz/{id} without touching the filesystem.
package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
)

// Trigger describes why a capsule was captured. It mirrors an alert
// transition without importing the alert package.
type Trigger struct {
	Rule      string  `json:"rule"`
	Severity  string  `json:"severity,omitempty"`
	State     string  `json:"state"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Detail    string  `json:"detail,omitempty"`
	// Inputs are the metric globs the rule read; their tsdb windows are
	// snapshotted into the capsule.
	Inputs []string `json:"inputs,omitempty"`
}

// SpanData is the JSON-stable projection of one recorded span.
type SpanData struct {
	TraceID  string      `json:"trace_id"`
	SpanID   string      `json:"span_id"`
	ParentID string      `json:"parent_id,omitempty"`
	Name     string      `json:"name"`
	Start    time.Time   `json:"start"`
	End      time.Time   `json:"end"`
	Status   string      `json:"status,omitempty"`
	Attrs    []span.Attr `json:"attrs,omitempty"`
}

// Capsule is one frozen snapshot of the recent past.
type Capsule struct {
	ID      string                  `json:"id"`
	Time    time.Time               `json:"time"`
	Trigger Trigger                 `json:"trigger"`
	Events  []obs.StreamEvent       `json:"events,omitempty"`
	Spans   []SpanData              `json:"spans,omitempty"`
	Series  map[string][]tsdb.Point `json:"series,omitempty"`
}

// Info is the capsule directory listing entry.
type Info struct {
	ID     string    `json:"id"`
	Time   time.Time `json:"time"`
	Rule   string    `json:"rule"`
	State  string    `json:"state"`
	Events int       `json:"events"`
	Spans  int       `json:"spans"`
	Series int       `json:"series"`
}

// Options assembles a Recorder. All fields are optional; a zero Recorder
// still produces capsules, they are just emptier.
type Options struct {
	// Broker is the SSE broker whose events the recorder buffers.
	Broker *obs.Broker
	// Spans is the span ring snapshotted at capture time.
	Spans *span.Store
	// DB provides the time-series windows for the trigger's inputs.
	DB *tsdb.DB
	// Dir, when non-empty, persists each capsule as <dir>/<id>.json.
	Dir string
	// MaxCapsules bounds the in-memory capsule ring; 0 selects 16.
	MaxCapsules int
	// MaxEvents bounds the buffered SSE event ring; 0 selects 256.
	MaxEvents int
	// MaxSpans bounds the span snapshot per capsule; 0 selects 128.
	MaxSpans int
	// Window bounds the time-series history per capsule; 0 selects 15m.
	Window time.Duration
	// Extra metric globs captured into every capsule regardless of the
	// trigger's inputs (for example process health, proc_*).
	Extra []string
	// Now is the injectable clock for tests; nil selects time.Now.
	Now func() time.Time
}

// Recorder buffers recent SSE events and captures capsules on demand.
type Recorder struct {
	spans  *span.Store
	db     *tsdb.DB
	broker *obs.Broker
	dir    string
	maxCap int
	maxEv  int
	maxSp  int
	window time.Duration
	extra  []string
	now    func() time.Time

	mu       sync.Mutex
	events   []obs.StreamEvent // ring, oldest first after reorder
	evNext   int
	evFull   bool
	capsules []*Capsule // newest last
	seq      uint64
	sub      *obs.Sub
	stopCh   chan struct{}
	started  bool
}

// New builds a Recorder. Call Start to begin buffering events.
func New(o Options) *Recorder {
	if o.MaxCapsules <= 0 {
		o.MaxCapsules = 16
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 256
	}
	if o.MaxSpans <= 0 {
		o.MaxSpans = 128
	}
	if o.Window <= 0 {
		o.Window = 15 * time.Minute
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return &Recorder{
		spans: o.Spans, db: o.DB, broker: o.Broker, dir: o.Dir,
		maxCap: o.MaxCapsules, maxEv: o.MaxEvents, maxSp: o.MaxSpans,
		window: o.Window, extra: o.Extra, now: o.Now,
		events: make([]obs.StreamEvent, o.MaxEvents),
		stopCh: make(chan struct{}),
	}
}

// Start subscribes to the broker and begins buffering events. Idempotent.
func (r *Recorder) Start() {
	if r == nil || r.broker == nil {
		return
	}
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.sub = r.broker.Subscribe(r.maxEv, nil)
	sub := r.sub
	r.mu.Unlock()
	go func() {
		for {
			select {
			case ev := <-sub.C:
				r.mu.Lock()
				r.events[r.evNext] = ev
				r.evNext = (r.evNext + 1) % len(r.events)
				if r.evNext == 0 {
					r.evFull = true
				}
				r.mu.Unlock()
			case <-r.stopCh:
				return
			}
		}
	}()
}

// Stop unsubscribes and ends the buffering goroutine. Idempotent.
func (r *Recorder) Stop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started {
		return
	}
	r.started = false
	close(r.stopCh)
	if r.sub != nil {
		r.sub.Close()
	}
}

// Capture freezes the recent past into a new capsule and returns it. The
// event ring, span ring and time-series windows are read under their own
// locks but assembled into one immutable snapshot.
func (r *Recorder) Capture(tr Trigger) *Capsule {
	if r == nil {
		return nil
	}
	now := r.now()

	r.mu.Lock()
	r.seq++
	id := fmt.Sprintf("f%06d-%s", r.seq, sanitizeID(tr.Rule))
	events := r.eventsLocked()
	r.mu.Unlock()

	c := &Capsule{ID: id, Time: now, Trigger: tr, Events: events}
	if r.spans != nil {
		for _, d := range r.spans.Recent(r.maxSp) {
			sd := SpanData{
				TraceID: d.TraceID.String(), SpanID: d.SpanID.String(),
				Name: d.Name, Start: d.Start, End: d.End,
				Status: d.Status, Attrs: d.Attrs,
			}
			if d.ParentID != (span.SpanID{}) {
				sd.ParentID = d.ParentID.String()
			}
			c.Spans = append(c.Spans, sd)
		}
	}
	if r.db != nil {
		c.Series = make(map[string][]tsdb.Point)
		pats := append(append([]string{}, tr.Inputs...), r.extra...)
		for _, pat := range pats {
			for _, name := range r.db.Match(pat) {
				if _, ok := c.Series[name]; ok {
					continue
				}
				if pts := r.db.Range(name, r.window); len(pts) > 0 {
					c.Series[name] = pts
				}
			}
		}
	}

	r.mu.Lock()
	r.capsules = append(r.capsules, c)
	if len(r.capsules) > r.maxCap {
		r.capsules = r.capsules[len(r.capsules)-r.maxCap:]
	}
	r.mu.Unlock()

	if r.dir != "" {
		r.persist(c)
	}
	return c
}

// eventsLocked flattens the event ring oldest-first. Caller holds r.mu.
func (r *Recorder) eventsLocked() []obs.StreamEvent {
	var out []obs.StreamEvent
	if r.evFull {
		out = append(out, r.events[r.evNext:]...)
	}
	out = append(out, r.events[:r.evNext]...)
	// Drop zero-value slots (ring not yet warm).
	keep := out[:0]
	for _, ev := range out {
		if ev.Seq != 0 {
			keep = append(keep, ev)
		}
	}
	return keep
}

func (r *Recorder) persist(c *Capsule) {
	b, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return
	}
	tmp := filepath.Join(r.dir, c.ID+".json.tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, filepath.Join(r.dir, c.ID+".json"))
}

// List returns the retained capsules' directory entries, newest first.
func (r *Recorder) List() []Info {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.capsules))
	for i := len(r.capsules) - 1; i >= 0; i-- {
		c := r.capsules[i]
		out = append(out, Info{
			ID: c.ID, Time: c.Time, Rule: c.Trigger.Rule, State: c.Trigger.State,
			Events: len(c.Events), Spans: len(c.Spans), Series: len(c.Series),
		})
	}
	return out
}

// Get returns a retained capsule by ID.
func (r *Recorder) Get(id string) (*Capsule, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.capsules {
		if c.ID == id {
			return c, true
		}
	}
	return nil, false
}

// SeriesNames returns a capsule's captured series names, sorted — a
// convenience for tests and the flightz HTML view.
func (c *Capsule) SeriesNames() []string {
	names := make([]string, 0, len(c.Series))
	for n := range c.Series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sanitizeID(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "capsule"
	}
	return b.String()
}
