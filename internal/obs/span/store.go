package span

import (
	"sort"
	"sync"
	"time"
)

// Store is a bounded in-memory ring of finished spans: the newest capacity
// span records are retained, older ones are overwritten. It exists so
// /debug/tracez and offline export can inspect recent work without tracing
// ever growing without bound under sustained traffic.
//
// All methods are safe for concurrent use and no-ops (returning zero values)
// on a nil receiver.
type Store struct {
	mu    sync.Mutex
	ring  []*Data
	next  int
	full  bool
	total uint64
}

// NewStore returns a store retaining the most recent capacity spans
// (0 selects 2048, negative values select 1).
func NewStore(capacity int) *Store {
	if capacity == 0 {
		capacity = 2048
	}
	if capacity < 0 {
		capacity = 1
	}
	return &Store{ring: make([]*Data, capacity)}
}

func (st *Store) add(d *Data) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.ring[st.next] = d
	st.next++
	if st.next == len(st.ring) {
		st.next = 0
		st.full = true
	}
	st.total++
	st.mu.Unlock()
}

// Len returns the number of spans currently retained.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.full {
		return len(st.ring)
	}
	return st.next
}

// Total returns the number of spans ever finished, including evicted ones.
func (st *Store) Total() uint64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.total
}

// snapshot returns the retained spans oldest-first.
func (st *Store) snapshot() []*Data {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Data, 0, len(st.ring))
	if st.full {
		out = append(out, st.ring[st.next:]...)
	}
	out = append(out, st.ring[:st.next]...)
	return out
}

// Recent returns up to n finished spans, newest-first (all of them for
// n <= 0).
func (st *Store) Recent(n int) []*Data {
	spans := st.snapshot()
	for i, j := 0, len(spans)-1; i < j; i, j = i+1, j-1 {
		spans[i], spans[j] = spans[j], spans[i]
	}
	if n > 0 && len(spans) > n {
		spans = spans[:n]
	}
	return spans
}

// Trace returns every retained span of the given trace, in start order.
func (st *Store) Trace(id TraceID) []*Data {
	var out []*Data
	for _, d := range st.snapshot() {
		if d.TraceID == id {
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// TraceSummary aggregates one trace's retained spans for the tracez view.
type TraceSummary struct {
	TraceID  TraceID
	Root     string // name of the root span, or of the earliest span when the root was evicted
	Start    time.Time
	Duration time.Duration // of the root span when present, else max over spans
	Spans    int
	Errors   int // spans with non-empty status
}

// Summaries groups the retained spans by trace and returns one summary per
// trace, newest-first. slow orders them by duration (longest first) instead.
func (st *Store) Summaries(n int, slow bool) []TraceSummary {
	byTrace := make(map[TraceID]*TraceSummary)
	hasRoot := make(map[TraceID]bool)
	var order []TraceID
	for _, d := range st.snapshot() {
		ts, ok := byTrace[d.TraceID]
		if !ok {
			ts = &TraceSummary{TraceID: d.TraceID, Root: d.Name, Start: d.Start}
			byTrace[d.TraceID] = ts
			order = append(order, d.TraceID)
		}
		ts.Spans++
		if d.Status != "" {
			ts.Errors++
		}
		if d.Start.Before(ts.Start) {
			ts.Start = d.Start
		}
		switch {
		case d.ParentID.IsZero():
			// The root span names and times the trace — even when async
			// children (job spans) outlive it.
			ts.Root = d.Name
			ts.Duration = d.Duration()
			hasRoot[d.TraceID] = true
		case !hasRoot[d.TraceID] && ts.Duration < d.Duration():
			// No root retained (evicted or still open): longest span stands in.
			ts.Duration = d.Duration()
		}
	}
	out := make([]TraceSummary, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- { // newest-first
		out = append(out, *byTrace[order[i]])
	}
	if slow {
		sort.SliceStable(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	}
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
