// Package tsdb is an embedded, allocation-conscious time-series store for
// the observability stack: it periodically samples every family of an
// obs.Registry into fixed-size per-series ring buffers and answers small
// longitudinal queries — instant, range, rate-over-window — over the
// retained history.
//
// The serving layer exposes instants (/metrics, statusz); this package is
// what turns them into history, so a latency spike five minutes ago, a
// cache whose hit rate collapsed, or a burst of clock-health alerts stays
// diagnosable after the fact. The alert rule engine
// (internal/obs/alert) evaluates against this store, and the flight
// recorder (internal/obs/flight) snapshots windows of it into capsules.
//
// Storage model: one global tick counter and timestamp ring shared by all
// series, plus per-series fixed-size value rings stamped with the tick that
// wrote each slot (so a series created mid-flight simply has stale stamps —
// no tombstones, no per-sample allocation). Counters are stored as their raw
// cumulative values and rolled up delta-aware at query time (negative
// deltas — counter resets — contribute zero); a counter first seen after
// the first poll also gets a zero sample at the previous poll, since the
// registry creates counters at their first increment. Histograms are
// rolled up at sample time into _count/_sum cumulative series plus
// interval-quantile gauge series (_p50/_p90/_p99) computed from consecutive
// cumulative-bucket deltas.
package tsdb

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// SeriesKind discriminates how a series rolls up over windows.
type SeriesKind byte

const (
	// KindCounter marks cumulative, monotone series: windows roll up as
	// positive deltas (rate, delta).
	KindCounter SeriesKind = 'c'
	// KindGauge marks instantaneous series: windows roll up as avg/min/max.
	KindGauge SeriesKind = 'g'
)

// Options tunes a DB. Zero values select the documented defaults.
type Options struct {
	// Step is the sampling cadence; 0 -> 5s.
	Step time.Duration
	// Retention is how much history each series keeps; 0 -> 1h. The ring
	// size is Retention/Step slots (at least 2).
	Retention time.Duration
	// MaxSeries bounds distinct series; new series beyond the cap are
	// dropped (counted in Stats). 0 -> 4096.
	MaxSeries int
	// Now is the injectable clock for tests; nil -> time.Now.
	Now func() time.Time
}

func (o Options) normalize() Options {
	if o.Step <= 0 {
		o.Step = 5 * time.Second
	}
	if o.Retention <= 0 {
		o.Retention = time.Hour
	}
	if o.MaxSeries <= 0 {
		o.MaxSeries = 4096
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// series is one metric's ring: vals[i] is valid iff ticks[i] stamps the
// global tick that wrote slot i.
type series struct {
	kind  SeriesKind
	vals  []float64
	ticks []int64
}

// DB is the embedded store. Create with New, feed it with Poll or Start a
// background ticker, query with Eval / Range / Instant. All methods are
// safe for concurrent use; a nil *DB is a no-op whose queries report no
// data, so optional wiring needs no branches.
type DB struct {
	opts  Options
	slots int

	mu      sync.Mutex
	reg     *obs.Registry
	series  map[string]*series
	names   []string // registration order, for stable listings
	times   []int64  // unix nanos per slot, shared by all series
	tick    int64    // polls taken so far; slot = (tick-1) % slots wrote last
	prev    map[string]histPrev
	dropped uint64 // series lost to MaxSeries

	stopCh  chan struct{}
	started bool
	stopped bool
}

// histPrev remembers a histogram's previous cumulative buckets so interval
// quantiles cover only the observations of the last step.
type histPrev struct {
	bounds []float64
	cum    []uint64
}

// New builds a DB sampling reg (a nil reg yields an always-empty store).
func New(reg *obs.Registry, opts Options) *DB {
	opts = opts.normalize()
	slots := int(opts.Retention / opts.Step)
	if slots < 2 {
		slots = 2
	}
	return &DB{
		opts:   opts,
		slots:  slots,
		reg:    reg,
		series: make(map[string]*series),
		times:  make([]int64, slots),
		prev:   make(map[string]histPrev),
		stopCh: make(chan struct{}),
	}
}

// Step returns the sampling cadence.
func (db *DB) Step() time.Duration {
	if db == nil {
		return 0
	}
	return db.opts.Step
}

// Retention returns the configured history span.
func (db *DB) Retention() time.Duration {
	if db == nil {
		return 0
	}
	return db.opts.Retention
}

// Poll takes one sample of every registry family, stamped with the current
// clock. Safe to call concurrently with a running ticker (polls serialize
// on the DB lock).
func (db *DB) Poll() {
	if db == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	now := db.opts.Now()
	slot := int(db.tick % int64(db.slots))
	db.tick++ // stamp slots with the new tick: valid slots carry db.tick
	db.times[slot] = now.UnixNano()

	if db.reg != nil {
		for _, f := range db.reg.Export() {
			switch f.Kind {
			case 'c':
				db.write(slot, f.Name, KindCounter, f.Value)
			case 'g':
				db.write(slot, f.Name, KindGauge, f.Value)
			case 'h':
				db.write(slot, suffixed(f.Name, "_count"), KindCounter, float64(f.Count))
				db.write(slot, suffixed(f.Name, "_sum"), KindCounter, f.Sum)
				d := db.bucketDelta(f)
				db.write(slot, suffixed(f.Name, "_p50"), KindGauge, bucketQuantile(f.Bounds, d, 0.50))
				db.write(slot, suffixed(f.Name, "_p90"), KindGauge, bucketQuantile(f.Bounds, d, 0.90))
				db.write(slot, suffixed(f.Name, "_p99"), KindGauge, bucketQuantile(f.Bounds, d, 0.99))
			}
		}
	}
}

// write records one value into a series' current slot, creating the series
// on first sight (subject to MaxSeries). Callers hold db.mu.
func (db *DB) write(slot int, name string, kind SeriesKind, v float64) {
	s, ok := db.series[name]
	if !ok {
		if len(db.series) >= db.opts.MaxSeries {
			db.dropped++
			return
		}
		s = &series{kind: kind, vals: make([]float64, db.slots), ticks: make([]int64, db.slots)}
		db.series[name] = s
		db.names = append(db.names, name)
		if kind == KindCounter && db.tick > 1 {
			// The counter did not exist at the previous poll, so it read 0
			// then: stamping that keeps its first increments visible to
			// rate and delta. The first poll stays a baseline.
			prev := (slot + db.slots - 1) % db.slots
			s.ticks[prev] = db.tick - 1
		}
	}
	s.vals[slot] = v
	s.ticks[slot] = db.tick
}

// bucketDelta returns the per-bucket (non-cumulative) counts a histogram
// accumulated since the previous poll. Callers hold db.mu.
func (db *DB) bucketDelta(f obs.Family) []uint64 {
	cum := f.Cum
	out := make([]uint64, len(cum))
	prev, ok := db.prev[f.Name]
	usePrev := ok && equalBounds(prev.bounds, f.Bounds) && len(prev.cum) == len(cum)
	last := uint64(0)
	for i, c := range cum {
		raw := c - last // de-cumulate current
		last = c
		if usePrev {
			praw := prev.cum[i]
			if i > 0 {
				praw -= prev.cum[i-1]
			}
			if raw >= praw {
				raw -= praw
			}
		}
		out[i] = raw
	}
	db.prev[f.Name] = histPrev{bounds: f.Bounds, cum: append([]uint64(nil), cum...)}
	return out
}

// Start launches the background sampling ticker (taking one sample
// immediately). Calling Start more than once, or after Stop, is a no-op.
func (db *DB) Start() {
	if db == nil {
		return
	}
	db.mu.Lock()
	if db.started || db.stopped {
		db.mu.Unlock()
		return
	}
	db.started = true
	db.mu.Unlock()
	db.Poll()
	go func() {
		t := time.NewTicker(db.opts.Step)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				db.Poll()
			case <-db.stopCh:
				return
			}
		}
	}()
}

// Stop ends the background ticker. Idempotent; Poll keeps working.
func (db *DB) Stop() {
	if db == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.stopped {
		return
	}
	db.stopped = true
	close(db.stopCh)
}

// Point is one retained sample.
type Point struct {
	Time  time.Time `json:"time"`
	Value float64   `json:"value"`
}

// SeriesInfo summarizes one series for listings.
type SeriesInfo struct {
	Name   string     `json:"name"`
	Kind   SeriesKind `json:"-"`
	KindS  string     `json:"kind"`
	Points int        `json:"points"`
	Last   float64    `json:"last"`
}

// Stats reports the store's own shape.
type Stats struct {
	Series   int           `json:"series"`
	Slots    int           `json:"slots"`
	Ticks    int64         `json:"ticks"`
	Dropped  uint64        `json:"dropped_series"`
	Step     time.Duration `json:"-"`
	StepSecs float64       `json:"step_seconds"`
	RetSecs  float64       `json:"retention_seconds"`
}

// DBStats returns the store's shape counters.
func (db *DB) DBStats() Stats {
	if db == nil {
		return Stats{}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return Stats{
		Series: len(db.series), Slots: db.slots, Ticks: db.tick,
		Dropped: db.dropped, Step: db.opts.Step,
		StepSecs: db.opts.Step.Seconds(), RetSecs: db.opts.Retention.Seconds(),
	}
}

// List returns every retained series, sorted by name.
func (db *DB) List() []SeriesInfo {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]SeriesInfo, 0, len(db.series))
	for _, name := range db.names {
		s := db.series[name]
		info := SeriesInfo{Name: name, Kind: s.kind, KindS: kindString(s.kind)}
		if pts := db.collectLocked(s, 0); len(pts) > 0 {
			info.Points = len(pts)
			info.Last = pts[len(pts)-1].Value
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func kindString(k SeriesKind) string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Match returns the names of retained series matching pattern (see Glob),
// sorted.
func (db *DB) Match(pattern string) []string {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []string
	for name := range db.series {
		if Glob(pattern, name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// collectLocked returns a series' valid samples oldest-first, restricted to
// the trailing window when window > 0. Callers hold db.mu.
func (db *DB) collectLocked(s *series, window time.Duration) []Point {
	if s == nil || db.tick == 0 {
		return nil
	}
	var cutoff int64
	if window > 0 {
		cutoff = db.opts.Now().Add(-window).UnixNano()
	}
	lo := db.tick - int64(db.slots)
	if lo < 0 {
		lo = 0
	}
	out := make([]Point, 0, db.slots)
	for t := lo; t < db.tick; t++ {
		slot := int(t % int64(db.slots))
		if s.ticks[slot] != t+1 { // slot stamped by a different (older) pass
			continue
		}
		ts := db.times[slot]
		if ts < cutoff {
			continue
		}
		out = append(out, Point{Time: time.Unix(0, ts), Value: s.vals[slot]})
	}
	return out
}

// Range returns the retained samples of one exactly-named series within the
// trailing window (the whole retention when window <= 0), oldest first.
func (db *DB) Range(name string, window time.Duration) []Point {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.collectLocked(db.series[name], window)
}

// Instant returns a series' most recent sample.
func (db *DB) Instant(name string) (Point, bool) {
	pts := db.Range(name, 0)
	if len(pts) == 0 {
		return Point{}, false
	}
	return pts[len(pts)-1], true
}

// Query funcs. "last" is the newest sample in the window; "rate" the
// positive-delta throughput per second (counters); "delta" the summed
// positive deltas over the window; "avg"/"min"/"max" the gauge rollups.
const (
	FuncLast  = "last"
	FuncRate  = "rate"
	FuncDelta = "delta"
	FuncAvg   = "avg"
	FuncMin   = "min"
	FuncMax   = "max"
)

// Query is one evaluation against the store. Metric may be a Glob pattern;
// matching series are each evaluated and folded with Agg ("max" by default,
// or "min"/"sum"/"avg"). Window bounds the samples considered; 0 selects
// the whole retention for range funcs and 3 steps of staleness for "last".
type Query struct {
	Metric string        `json:"metric"`
	Func   string        `json:"func,omitempty"` // default "last"
	Window time.Duration `json:"-"`
	Agg    string        `json:"agg,omitempty"`
}

// ValidFunc reports whether f names a query function.
func ValidFunc(f string) bool {
	switch f {
	case "", FuncLast, FuncRate, FuncDelta, FuncAvg, FuncMin, FuncMax:
		return true
	}
	return false
}

// Eval evaluates q. ok is false when no matching series has data in the
// window (absence — which the alert engine treats as its own condition).
func (db *DB) Eval(q Query) (value float64, ok bool) {
	if db == nil {
		return 0, false
	}
	names := []string{q.Metric}
	if strings.ContainsRune(q.Metric, '*') {
		names = db.Match(q.Metric)
	}
	agg, n := 0.0, 0
	for _, name := range names {
		v, has := db.evalOne(name, q.Func, q.Window)
		if !has {
			continue
		}
		n++
		switch q.Agg {
		case "sum", "avg":
			agg += v
		case "min":
			if n == 1 || v < agg {
				agg = v
			}
		default: // max
			if n == 1 || v > agg {
				agg = v
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	if q.Agg == "avg" {
		agg /= float64(n)
	}
	return agg, true
}

// evalOne evaluates one function over one exactly-named series.
func (db *DB) evalOne(name, fn string, window time.Duration) (float64, bool) {
	switch fn {
	case "", FuncLast:
		stale := window
		if stale <= 0 {
			stale = 3 * db.opts.Step
		}
		pts := db.Range(name, stale)
		if len(pts) == 0 {
			return 0, false
		}
		return pts[len(pts)-1].Value, true
	case FuncRate, FuncDelta:
		pts := db.Range(name, window)
		if len(pts) < 2 {
			return 0, false
		}
		delta := 0.0
		for i := 1; i < len(pts); i++ {
			if d := pts[i].Value - pts[i-1].Value; d > 0 {
				delta += d // counter resets contribute zero, never negative
			}
		}
		if fn == FuncDelta {
			return delta, true
		}
		secs := pts[len(pts)-1].Time.Sub(pts[0].Time).Seconds()
		if secs <= 0 {
			return 0, false
		}
		return delta / secs, true
	case FuncAvg, FuncMin, FuncMax:
		pts := db.Range(name, window)
		if len(pts) == 0 {
			return 0, false
		}
		v := pts[0].Value
		for _, p := range pts[1:] {
			switch fn {
			case FuncAvg:
				v += p.Value
			case FuncMin:
				if p.Value < v {
					v = p.Value
				}
			case FuncMax:
				if p.Value > v {
					v = p.Value
				}
			}
		}
		if fn == FuncAvg {
			v /= float64(len(pts))
		}
		return v, true
	}
	return 0, false
}

// Glob matches name against a pattern where '*' matches any run of
// characters (including none). Segments between stars must appear in order;
// a pattern without '*' must match exactly.
func Glob(pattern, name string) bool {
	if !strings.ContainsRune(pattern, '*') {
		return pattern == name
	}
	segs := strings.Split(pattern, "*")
	if !strings.HasPrefix(name, segs[0]) {
		return false
	}
	name = name[len(segs[0]):]
	last := segs[len(segs)-1]
	for _, seg := range segs[1 : len(segs)-1] {
		i := strings.Index(name, seg)
		if i < 0 {
			return false
		}
		name = name[i+len(seg):]
	}
	return strings.HasSuffix(name, last)
}

// suffixed inserts a suffix before any inline label block, mirroring the
// registry's exposition naming: suffixed(`h{a="b"}`, "_p99") -> `h_p99{a="b"}`.
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// bucketQuantile returns the q-quantile of a bucketed distribution as the
// upper bound of the bucket where the cumulative count crosses q·total
// (+Inf falls back to the last finite bound). Empty distributions report 0.
func bucketQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			if len(bounds) > 0 {
				return bounds[len(bounds)-1] // +Inf bucket: clamp to last bound
			}
			return 0
		}
	}
	return 0
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
