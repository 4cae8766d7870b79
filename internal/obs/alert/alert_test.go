package alert

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

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

// harness wires a registry, store, broker and engine onto one manual clock.
type harness struct {
	reg    *obs.Registry
	db     *tsdb.DB
	broker *obs.Broker
	eng    *Engine
	clk    *testClock
	trs    []Transition
	trMu   sync.Mutex
}

func newHarness(t *testing.T, rules []Rule) *harness {
	t.Helper()
	h := &harness{reg: obs.NewRegistry(), broker: obs.NewBroker(), clk: newTestClock()}
	h.db = tsdb.New(h.reg, tsdb.Options{Step: time.Second, Retention: time.Minute, Now: h.clk.Now})
	h.eng = New(Options{
		DB: h.db, Rules: rules, Registry: h.reg, Broker: h.broker, Now: h.clk.Now,
		OnTransition: func(tr Transition) {
			h.trMu.Lock()
			h.trs = append(h.trs, tr)
			h.trMu.Unlock()
		},
	})
	return h
}

// tick samples the store, evaluates rules once, and advances the clock.
func (h *harness) tick() []Transition {
	h.db.Poll()
	trs := h.eng.EvalOnce()
	h.clk.Advance(time.Second)
	return trs
}

func (h *harness) state(name string) RuleStatus {
	for _, st := range h.eng.Status() {
		if st.Rule.Name == name {
			return st
		}
	}
	return RuleStatus{}
}

func TestThresholdLifecycle(t *testing.T) {
	rule := Rule{
		Name: "depth", Kind: KindThreshold, Metric: "queue_depth",
		Func: "last", Op: ">=", Value: 5,
		ForSeconds: 2, KeepSeconds: 2, WindowSeconds: 30,
	}
	h := newHarness(t, []Rule{rule})
	sub := h.broker.Subscribe(64, nil)
	defer sub.Close()
	g := h.reg.Gauge("queue_depth")

	g.Set(1)
	h.tick()
	if st := h.state("depth"); st.State != StateInactive {
		t.Fatalf("healthy value: state=%s want inactive", st.State)
	}

	// Violation: pending for ForSeconds, then firing.
	g.Set(9)
	h.tick()
	if st := h.state("depth"); st.State != StatePending {
		t.Fatalf("first violating pass: state=%s want pending", st.State)
	}
	h.tick()
	h.tick()
	if st := h.state("depth"); st.State != StateFiring {
		t.Fatalf("after dwell: state=%s want firing", st.State)
	}
	if v := h.reg.Gauge(obs.Label("alerts_firing", "rule", "depth")).Value(); v != 1 {
		t.Fatalf("alerts_firing gauge = %v, want 1", v)
	}

	// One clear pass is not enough (Keep hysteresis), a relapse re-arms.
	g.Set(0)
	h.tick()
	g.Set(9)
	h.tick()
	if st := h.state("depth"); st.State != StateFiring {
		t.Fatalf("after relapse: state=%s want firing (hysteresis)", st.State)
	}

	// Sustained clear resolves.
	g.Set(0)
	h.tick()
	h.tick()
	h.tick()
	if st := h.state("depth"); st.State != StateInactive {
		t.Fatalf("after sustained clear: state=%s want inactive", st.State)
	}
	if v := h.reg.Gauge(obs.Label("alerts_firing", "rule", "depth")).Value(); v != 0 {
		t.Fatalf("alerts_firing gauge after resolve = %v, want 0", v)
	}

	// The lifecycle produced pending, firing, and resolve transitions on
	// the hook, the broker (kind "alert"), and the transition counter.
	h.trMu.Lock()
	var seq []string
	for _, tr := range h.trs {
		seq = append(seq, tr.To)
	}
	h.trMu.Unlock()
	want := []string{StatePending, StateFiring, StateResolved}
	if strings.Join(seq, ",") != strings.Join(want, ",") {
		t.Fatalf("transition sequence = %v, want %v", seq, want)
	}
	if n := len(sub.C); n != len(want) {
		t.Fatalf("broker delivered %d alert events, want %d", n, len(want))
	}
	ev := <-sub.C
	if ev.Kind != "alert" || ev.Data["rule"] != "depth" || ev.Data["state"] != StatePending {
		t.Fatalf("first stream event = %+v", ev)
	}
	if c := h.reg.Counter(obs.Label("alert_transitions_total", "rule", "depth", "to", StateFiring)).Value(); c != 1 {
		t.Fatalf("firing transition counter = %v, want 1", c)
	}
	if st := h.state("depth"); st.Fires != 1 || st.LastFire.IsZero() {
		t.Fatalf("fire bookkeeping = %+v", st)
	}
}

func TestZeroForFiresImmediately(t *testing.T) {
	rule := Rule{Name: "now", Kind: KindThreshold, Metric: "x", Op: ">", Value: 0, WindowSeconds: 30}
	h := newHarness(t, []Rule{rule})
	h.reg.Gauge("x").Set(1)
	trs := h.tick()
	if len(trs) != 2 || trs[0].To != StatePending || trs[1].To != StateFiring {
		t.Fatalf("transitions = %+v, want pending then firing in one pass", trs)
	}
}

func TestAbsenceRule(t *testing.T) {
	rule := Rule{Name: "gone", Kind: KindAbsence, Metric: `up{node="w1"}`, WindowSeconds: 3}
	h := newHarness(t, []Rule{rule})
	h.reg.Gauge(obs.Label("up", "node", "w1")).Set(1)
	h.tick()
	if st := h.state("gone"); st.State != StateInactive {
		t.Fatalf("present series: state=%s want inactive", st.State)
	}
	// Let the series go stale (no further polls); once the last sample ages
	// out of the window, the absence rule fires.
	for i := 0; i < 5; i++ {
		h.clk.Advance(time.Second)
		h.eng.EvalOnce()
	}
	if st := h.state("gone"); st.State != StateFiring {
		t.Fatalf("stale series: state=%s want firing", st.State)
	}
}

func TestRatioRuleAndMinDen(t *testing.T) {
	rule := Rule{
		Name: "errs", Kind: KindRatio,
		Num: []string{`req_total{*code="5*`}, Den: []string{"req_total{*}"},
		MinDen: 0.5, Op: ">", Value: 0.2, WindowSeconds: 30,
	}
	h := newHarness(t, []Rule{rule})
	ok := h.reg.Counter(obs.Label("req_total", "code", "200"))
	bad := h.reg.Counter(obs.Label("req_total", "code", "500"))

	// Tiny traffic below MinDen: suppressed even though the ratio is 100%.
	bad.Inc()
	h.tick()
	h.tick()
	if st := h.state("errs"); st.State != StateInactive || st.HasValue {
		t.Fatalf("below traffic floor: %+v, want inactive without value", st)
	}

	// Real traffic, 50% errors: fires.
	for i := 0; i < 10; i++ {
		ok.Add(3)
		bad.Add(3)
		h.tick()
	}
	if st := h.state("errs"); st.State != StateFiring {
		t.Fatalf("half errors: state=%s want firing (value %v)", st.State, st.Value)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Rule{
		{},
		{Name: "x", Kind: "nope"},
		{Name: "x", Kind: KindThreshold},
		{Name: "x", Kind: KindThreshold, Metric: "m", Op: "=="},
		{Name: "x", Kind: KindThreshold, Metric: "m", Op: ">", Func: "median"},
		{Name: "x", Kind: KindRatio, Num: []string{"a"}},
		{Name: "x", Kind: KindThreshold, Metric: "m", Op: ">", Severity: "fatal"},
		{Name: "x", Kind: KindThreshold, Metric: "m", Op: ">", Agg: "p50"},
		{Name: "bad\nname", Kind: KindAbsence, Metric: "m"},
		{Name: "x", Kind: KindAbsence, Metric: "m", ForSeconds: -1},
	}
	for i, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted a bad rule", i, r)
		}
	}
}

func TestParseAndLoad(t *testing.T) {
	body := `{"rules":[
	  {"name":"a","kind":"absence","metric":"up","window_seconds":30},
	  {"name":"b","kind":"ratio","num":["e_total"],"den":["r_total"],"op":">","value":0.1}
	]}`
	rules, err := Parse([]byte(body))
	if err != nil || len(rules) != 2 {
		t.Fatalf("Parse = %v, %v", rules, err)
	}
	if _, err := Parse([]byte(`{"rules":[{"name":"a","kind":"absence","metric":"m"},{"name":"a","kind":"absence","metric":"m"}]}`)); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := Parse([]byte(`{"rules":[{"name":"a","kind":"absence","metric":"m","typo":1}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "rules.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if rules, err := Load(path); err != nil || len(rules) != 2 {
		t.Fatalf("Load = %v, %v", rules, err)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}

func TestDefaultRulesValidAndQuiet(t *testing.T) {
	rules := DefaultRules()
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			t.Errorf("default rule invalid: %v", err)
		}
	}
	// On an empty store, no default rule may fire — absence of traffic is
	// not an outage.
	h := newHarness(t, rules)
	for i := 0; i < 5; i++ {
		h.tick()
	}
	for _, st := range h.eng.Status() {
		if st.State != StateInactive {
			t.Errorf("rule %q is %s on an idle server", st.Rule.Name, st.State)
		}
	}
}

func TestEngineStartStopAndNil(t *testing.T) {
	h := newHarness(t, DefaultRules())
	h.eng.Start()
	h.eng.Start() // idempotent
	h.eng.Stop()
	h.eng.Stop()

	var e *Engine
	if e.EvalOnce() != nil || e.Status() != nil || e.FiringCount() != 0 || e.Rules() != nil {
		t.Fatal("nil engine returned non-zero results")
	}
	e.Start()
	e.Stop()
}

func TestNewPanicsOnInvalidRule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid rule")
		}
	}()
	h := newHarness(t, nil)
	New(Options{DB: h.db, Rules: []Rule{{Name: "bad"}}})
}
