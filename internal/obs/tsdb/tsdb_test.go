package tsdb

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// testClock is a manually advanced clock for deterministic polls.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestDB(t *testing.T, reg *obs.Registry, step, retention time.Duration) (*DB, *testClock) {
	t.Helper()
	clk := newTestClock()
	return New(reg, Options{Step: step, Retention: retention, Now: clk.Now}), clk
}

func TestGaugeAndCounterSampling(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g_depth")
	c := reg.Counter("c_total")
	db, clk := newTestDB(t, reg, time.Second, time.Minute)

	for i := 0; i < 5; i++ {
		g.Set(float64(10 + i))
		c.Add(3)
		db.Poll()
		clk.Advance(time.Second)
	}

	p, ok := db.Instant("g_depth")
	if !ok || p.Value != 14 {
		t.Fatalf("Instant(g_depth) = %v,%v want 14,true", p.Value, ok)
	}
	pts := db.Range("c_total", 0)
	if len(pts) != 5 {
		t.Fatalf("Range(c_total) = %d points, want 5", len(pts))
	}
	if pts[0].Value != 3 || pts[4].Value != 15 {
		t.Fatalf("counter endpoints = %v..%v, want 3..15", pts[0].Value, pts[4].Value)
	}

	// Rate over the full window: 12 units over 4s.
	v, ok := db.Eval(Query{Metric: "c_total", Func: FuncRate, Window: time.Minute})
	if !ok || v != 3 {
		t.Fatalf("rate(c_total) = %v,%v want 3,true", v, ok)
	}
	// Delta-aware: a counter reset must not produce a negative rollup.
	reg2 := obs.NewRegistry()
	db2, clk2 := newTestDB(t, reg2, time.Second, time.Minute)
	c2 := reg2.Counter("r_total")
	c2.Add(100)
	db2.Poll()
	clk2.Advance(time.Second)
	// Simulate a reset by sampling a fresh registry counter under one name.
	reg3 := obs.NewRegistry()
	db2.mu.Lock()
	db2.reg = reg3
	db2.mu.Unlock()
	reg3.Counter("r_total").Add(5)
	db2.Poll()
	clk2.Advance(time.Second)
	if v, ok := db2.Eval(Query{Metric: "r_total", Func: FuncDelta, Window: time.Minute}); !ok || v != 0 {
		t.Fatalf("delta across reset = %v,%v want 0,true", v, ok)
	}
}

func TestRingWrapKeepsOnlyRetention(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("w")
	db, clk := newTestDB(t, reg, time.Second, 4*time.Second) // 4 slots

	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		db.Poll()
		clk.Advance(time.Second)
	}
	pts := db.Range("w", 0)
	if len(pts) != 4 {
		t.Fatalf("after wrap: %d points, want 4", len(pts))
	}
	if pts[0].Value != 6 || pts[3].Value != 9 {
		t.Fatalf("retained window = %v..%v, want 6..9", pts[0].Value, pts[3].Value)
	}
	for i := 1; i < len(pts); i++ {
		if !pts[i].Time.After(pts[i-1].Time) {
			t.Fatalf("points out of order at %d", i)
		}
	}
}

func TestWindowedRollups(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("v")
	db, clk := newTestDB(t, reg, time.Second, time.Minute)
	for _, v := range []float64{5, 1, 9, 3} {
		g.Set(v)
		db.Poll()
		clk.Advance(time.Second)
	}
	cases := []struct {
		fn   string
		want float64
	}{{FuncAvg, 4.5}, {FuncMin, 1}, {FuncMax, 9}, {FuncLast, 3}}
	for _, tc := range cases {
		v, ok := db.Eval(Query{Metric: "v", Func: tc.fn, Window: time.Minute})
		if !ok || v != tc.want {
			t.Errorf("%s(v) = %v,%v want %v,true", tc.fn, v, ok, tc.want)
		}
	}
}

func TestHistogramQuantileRollup(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	db, clk := newTestDB(t, reg, time.Second, time.Minute)

	for i := 0; i < 100; i++ {
		h.Observe(0.005) // all in the first bucket
	}
	db.Poll()
	clk.Advance(time.Second)

	// Interval quantiles: second interval is dominated by slow observations,
	// even though cumulatively the fast ones outnumber them.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	db.Poll()

	if v, ok := db.Eval(Query{Metric: "lat_seconds_p99"}); !ok || v != 1 {
		t.Fatalf("interval p99 = %v,%v want 1,true (slow interval)", v, ok)
	}
	if v, ok := db.Eval(Query{Metric: "lat_seconds_count", Func: FuncLast}); !ok || v != 110 {
		t.Fatalf("count series = %v,%v want 110,true", v, ok)
	}
	// Labelled histograms keep the label block after the rollup suffix.
	reg2 := obs.NewRegistry()
	db2, _ := newTestDB(t, reg2, time.Second, time.Minute)
	reg2.Histogram(obs.Label("req_seconds", "route", "GET /x"), []float64{0.1, 1}).Observe(0.05)
	db2.Poll()
	if _, ok := db2.Instant(`req_seconds_p50{route="GET /x"}`); !ok {
		t.Fatalf("labelled quantile series missing; have %v", db2.Match("req_seconds*"))
	}
}

func TestGlobAggregation(t *testing.T) {
	reg := obs.NewRegistry()
	db, clk := newTestDB(t, reg, time.Second, time.Minute)
	points := map[string]*obs.Counter{}
	for w, v := range map[string]float64{"w1": 2, "w2": 7} {
		points[w] = reg.Counter(obs.Label("worker_points_total", "worker", w))
		points[w].Add(v)
		reg.Gauge(obs.Label("worker_busy", "worker", w)).Set(1)
	}
	db.Poll()
	clk.Advance(time.Second)
	points["w1"].Add(3)
	points["w2"].Add(4)
	db.Poll()

	if v, ok := db.Eval(Query{Metric: "worker_points_total{*}", Func: FuncDelta, Window: time.Minute, Agg: "sum"}); !ok || v != 7 {
		t.Fatalf("summed worker delta = %v,%v want 7,true", v, ok)
	}
	if v, ok := db.Eval(Query{Metric: "worker_busy{*}", Agg: "min"}); !ok || v != 1 {
		t.Fatalf("min worker_busy = %v,%v want 1,true", v, ok)
	}
	if got := db.Match("worker_*"); len(got) != 4 {
		t.Fatalf("Match(worker_*) = %v, want 4 series", got)
	}
}

// TestCounterCreatedBetweenPolls: the registry creates a counter at its
// first increment, so a burst that lands between two polls is the counter's
// whole first sample. It must still count toward rate and delta.
func TestCounterCreatedBetweenPolls(t *testing.T) {
	reg := obs.NewRegistry()
	db, clk := newTestDB(t, reg, time.Second, time.Minute)
	db.Poll()
	clk.Advance(time.Second)
	reg.Counter(obs.Label("alerts_total", "rule", "phase_overlap")).Add(32)
	db.Poll()

	q := Query{Metric: "alerts_total{*}", Func: FuncDelta, Window: time.Minute, Agg: "sum"}
	if v, ok := db.Eval(q); !ok || v != 32 {
		t.Fatalf("delta over the first burst = %v,%v want 32,true", v, ok)
	}
	q.Func = FuncRate
	if v, ok := db.Eval(q); !ok || v != 32 {
		t.Fatalf("rate over the first burst = %v,%v want 32,true", v, ok)
	}
	// A counter present at the first poll keeps that poll as its baseline.
	db2, clk2 := newTestDB(t, reg, time.Second, time.Minute)
	db2.Poll()
	clk2.Advance(time.Second)
	db2.Poll()
	if v, ok := db2.Eval(q); !ok || v != 0 {
		t.Fatalf("rate of a counter seen at the first poll = %v,%v want 0,true", v, ok)
	}
}

func TestAbsenceAndStaleness(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("s")
	db, clk := newTestDB(t, reg, time.Second, time.Minute)
	g.Set(1)
	db.Poll()

	if _, ok := db.Eval(Query{Metric: "missing"}); ok {
		t.Fatal("Eval of unknown series reported data")
	}
	// "last" with the default staleness bound (3 steps) stops reporting once
	// the clock moves past it without new polls.
	clk.Advance(10 * time.Second)
	if _, ok := db.Eval(Query{Metric: "s"}); ok {
		t.Fatal("stale sample still reported by last")
	}
	// An explicit window can reach further back.
	if v, ok := db.Eval(Query{Metric: "s", Window: time.Minute}); !ok || v != 1 {
		t.Fatalf("windowed last = %v,%v want 1,true", v, ok)
	}
}

func TestMaxSeriesBound(t *testing.T) {
	clk := newTestClock()
	reg := obs.NewRegistry()
	for i := 0; i < 10; i++ {
		reg.Gauge(fmt.Sprintf("s%d", i)).Set(1)
	}
	db := New(reg, Options{Step: time.Second, Retention: time.Minute, MaxSeries: 3, Now: clk.Now})
	db.Poll()
	st := db.DBStats()
	if st.Series != 3 || st.Dropped != 7 {
		t.Fatalf("stats = %+v, want 3 series / 7 dropped", st)
	}
}

func TestGlob(t *testing.T) {
	cases := []struct {
		pat, name string
		want      bool
	}{
		{"a_total", "a_total", true},
		{"a_total", "a_total{x=\"1\"}", false},
		{"a_total{*}", "a_total{x=\"1\"}", true},
		{"a_total{*", "a_total{x=\"1\"}", true},
		{"http_requests_total{*code=\"5*", `http_requests_total{route="GET /x",code="500"}`, true},
		{"http_requests_total{*code=\"5*", `http_requests_total{route="GET /x",code="200"}`, false},
		{"*_p99*", `lat_p99{route="a"}`, true},
		{"x*y*z", "xAyBz", true},
		{"x*y*z", "xAzBy", false},
	}
	for _, tc := range cases {
		if got := Glob(tc.pat, tc.name); got != tc.want {
			t.Errorf("Glob(%q, %q) = %v, want %v", tc.pat, tc.name, got, tc.want)
		}
	}
}

// TestConcurrentPollAndQuery is the race-detector target: a background
// ticker-style poller racing queries.
func TestConcurrentPollAndQuery(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("busy_total")
	db := New(reg, Options{Step: time.Millisecond, Retention: 100 * time.Millisecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				db.Poll()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				db.Eval(Query{Metric: "busy_total", Func: FuncRate, Window: time.Second})
				db.List()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				db.Range("busy_total", 50*time.Millisecond)
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestNilDBIsNoOp(t *testing.T) {
	var db *DB
	db.Poll()
	db.Start()
	db.Stop()
	if _, ok := db.Eval(Query{Metric: "x"}); ok {
		t.Fatal("nil DB reported data")
	}
	if db.Range("x", 0) != nil || db.List() != nil || db.Match("*") != nil {
		t.Fatal("nil DB returned non-nil results")
	}
}
