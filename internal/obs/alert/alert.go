// Package alert is a declarative, continuously evaluated rule engine over
// the embedded time-series store (internal/obs/tsdb). Rules express the
// operational invariants of the serving layer and of the simulated
// chemistry — the response cache collapsed, p99 latency blew its budget,
// too many requests failed with 5xx, clock-health alerts came in a burst —
// and the engine turns them into states with memory: inactive → pending
// (the condition holds but hasn't held For long enough) → firing →
// resolved (the condition stayed clear for the re-arm hysteresis KeepFor).
//
// Evaluation is ticker-driven, not sample-driven, on purpose: rules read
// windows of history (rates, quantile series, absence), so the natural
// evaluation cadence is the store's sampling step, and a ticker makes the
// engine's cost independent of event volume — a metrics hot path never
// pays for rule evaluation. Each transition emits an alerts_firing{rule=}
// gauge flip, an SSE "alert" StreamEvent over the broker, a structured
// slog record correlated to a per-evaluation span, and an optional
// OnTransition callback (the flight recorder's trigger).
package alert

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
)

// Rule kinds.
const (
	// KindThreshold compares a windowed query of one metric (or glob)
	// against Value with Op.
	KindThreshold = "threshold"
	// KindAbsence fires when the metric has no sample within Window.
	KindAbsence = "absence"
	// KindRatio compares the ratio of two summed rates — Num over Den —
	// against Value with Op; the classic burn-rate shape. Den at or below
	// MinDen (per second) suppresses the rule: no traffic, no verdict.
	KindRatio = "ratio"
)

// Severity labels, loosest to strictest ordering only by convention.
const (
	SevInfo = "info"
	SevWarn = "warn"
	SevPage = "page"
)

// Rule is one declarative alert. The JSON shape doubles as the -rules file
// format (see File).
type Rule struct {
	Name     string `json:"name"`
	Severity string `json:"severity,omitempty"` // info|warn|page; default warn
	Kind     string `json:"kind"`               // threshold|absence|ratio

	// Threshold and absence rules name one metric (glob patterns allowed;
	// Agg folds multiple matches — max by default, or min|sum|avg).
	Metric string `json:"metric,omitempty"`
	Func   string `json:"func,omitempty"` // last|rate|delta|avg|min|max; default last
	Agg    string `json:"agg,omitempty"`

	// Ratio rules sum the windowed rates of the Num and Den series lists
	// (each entry may be a glob).
	Num    []string `json:"num,omitempty"`
	Den    []string `json:"den,omitempty"`
	MinDen float64  `json:"min_den,omitempty"` // denominator rate floor, per second

	Op    string  `json:"op,omitempty"` // > >= < <=
	Value float64 `json:"value,omitempty"`

	WindowSeconds float64 `json:"window_seconds,omitempty"` // query window; default 60
	ForSeconds    float64 `json:"for_seconds,omitempty"`    // pending dwell before firing
	KeepSeconds   float64 `json:"keep_seconds,omitempty"`   // re-arm hysteresis after clear

	Detail string `json:"detail,omitempty"` // human-readable context
}

// Window returns the rule's query window.
func (r Rule) Window() time.Duration {
	if r.WindowSeconds <= 0 {
		return time.Minute
	}
	return time.Duration(r.WindowSeconds * float64(time.Second))
}

// For returns the pending dwell before a violated rule fires.
func (r Rule) For() time.Duration {
	return time.Duration(r.ForSeconds * float64(time.Second))
}

// Keep returns the clear dwell before a firing rule resolves.
func (r Rule) Keep() time.Duration {
	return time.Duration(r.KeepSeconds * float64(time.Second))
}

// Inputs returns the metric patterns the rule reads — what the flight
// recorder snapshots when the rule fires.
func (r Rule) Inputs() []string {
	var in []string
	if r.Metric != "" {
		in = append(in, r.Metric)
	}
	in = append(in, r.Num...)
	in = append(in, r.Den...)
	return in
}

// Validate reports the first structural problem with the rule.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("rule missing name")
	}
	if strings.ContainsAny(r.Name, "\n\r\"{}") {
		return fmt.Errorf("rule %q: name contains exposition metacharacters", r.Name)
	}
	switch r.Severity {
	case "", SevInfo, SevWarn, SevPage:
	default:
		return fmt.Errorf("rule %q: unknown severity %q", r.Name, r.Severity)
	}
	switch r.Kind {
	case KindThreshold:
		if r.Metric == "" {
			return fmt.Errorf("rule %q: threshold needs a metric", r.Name)
		}
		if !tsdb.ValidFunc(r.Func) {
			return fmt.Errorf("rule %q: unknown func %q", r.Name, r.Func)
		}
		if !validOp(r.Op) {
			return fmt.Errorf("rule %q: bad op %q (want > >= < <=)", r.Name, r.Op)
		}
	case KindAbsence:
		if r.Metric == "" {
			return fmt.Errorf("rule %q: absence needs a metric", r.Name)
		}
	case KindRatio:
		if len(r.Num) == 0 || len(r.Den) == 0 {
			return fmt.Errorf("rule %q: ratio needs num and den series", r.Name)
		}
		if !validOp(r.Op) {
			return fmt.Errorf("rule %q: bad op %q (want > >= < <=)", r.Name, r.Op)
		}
	default:
		return fmt.Errorf("rule %q: unknown kind %q", r.Name, r.Kind)
	}
	switch r.Agg {
	case "", "max", "min", "sum", "avg":
	default:
		return fmt.Errorf("rule %q: unknown agg %q", r.Name, r.Agg)
	}
	if r.WindowSeconds < 0 || r.ForSeconds < 0 || r.KeepSeconds < 0 {
		return fmt.Errorf("rule %q: negative duration", r.Name)
	}
	return nil
}

func validOp(op string) bool {
	switch op {
	case ">", ">=", "<", "<=":
		return true
	}
	return false
}

func compare(v float64, op string, limit float64) bool {
	switch op {
	case ">":
		return v > limit
	case ">=":
		return v >= limit
	case "<":
		return v < limit
	case "<=":
		return v <= limit
	}
	return false
}

// File is the on-disk rules format: {"rules": [...]}.
type File struct {
	Rules []Rule `json:"rules"`
}

// Parse decodes and validates a rules file body.
func Parse(b []byte) ([]Rule, error) {
	var f File
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("rules file: %w", err)
	}
	seen := make(map[string]bool, len(f.Rules))
	for _, r := range f.Rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
	return f.Rules, nil
}

// Load reads and validates a rules file from disk.
func Load(path string) ([]Rule, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(b)
}

// Alert states.
const (
	StateInactive = "inactive"
	StatePending  = "pending"
	StateFiring   = "firing"
	// StateResolved only appears as a Transition.To (firing cleared after
	// the Keep dwell); the rule's stored state returns to inactive.
	StateResolved = "resolved"
)

// RuleStatus is one rule's externally visible state (statusz, flightz).
type RuleStatus struct {
	Rule     Rule      `json:"rule"`
	State    string    `json:"state"`
	Since    time.Time `json:"since"`               // entered the current state
	Value    float64   `json:"value"`               // last evaluated value
	HasValue bool      `json:"has_value"`           // false when the query had no data
	Fires    uint64    `json:"fires"`               // lifetime pending->firing transitions
	LastFire time.Time `json:"last_fire,omitempty"` // zero until the first fire
}

// Transition is one state change, delivered to OnTransition and the broker.
type Transition struct {
	Rule     Rule
	From, To string
	At       time.Time
	Value    float64
	HasValue bool
}

// Options assembles an Engine. DB is required; everything else optional.
type Options struct {
	DB    *tsdb.DB
	Rules []Rule
	// Every is the evaluation cadence; 0 -> the DB's sampling step.
	Every time.Duration
	// Registry receives alerts_firing{rule=} gauges and
	// alert_transitions_total{rule=,to=} counters.
	Registry *obs.Registry
	// Broker receives one "alert" StreamEvent per transition.
	Broker *obs.Broker
	// Logger receives one structured record per transition, correlated to
	// the evaluation span when Tracer is set.
	Logger *slog.Logger
	// Tracer, when set, wraps each evaluation pass that produced
	// transitions in an "alert.eval" span (trace correlation for logs).
	Tracer *span.Tracer
	// OnTransition observes every transition after metrics/stream/log
	// emission — the flight recorder's capture hook. Called on the
	// evaluation goroutine; must not block.
	OnTransition func(Transition)
	// Now is the injectable clock for tests; nil -> time.Now.
	Now func() time.Time
}

// ruleState is one rule's evaluation memory.
type ruleState struct {
	rule       Rule
	state      string
	since      time.Time
	clearSince time.Time // while firing: when the condition last went clear
	value      float64
	hasValue   bool
	fires      uint64
	lastFire   time.Time
	firing     *obs.Gauge
}

// Engine evaluates rules on a ticker. Create with New, Start/Stop, or call
// EvalOnce directly (tests, or a caller that owns the cadence).
type Engine struct {
	db     *tsdb.DB
	every  time.Duration
	now    func() time.Time
	reg    *obs.Registry
	broker *obs.Broker
	log    *slog.Logger
	tracer *span.Tracer
	onTr   func(Transition)

	mu     sync.Mutex
	states []*ruleState

	stopCh  chan struct{}
	started bool
	stopped bool
}

// New builds an Engine; rules must already be validated (New panics on an
// invalid rule, the same contract as template.Must — rule sets are static
// configuration).
func New(o Options) *Engine {
	if o.Every <= 0 {
		o.Every = o.DB.Step()
	}
	if o.Every <= 0 {
		o.Every = 5 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	e := &Engine{
		db: o.DB, every: o.Every, now: o.Now,
		reg: o.Registry, broker: o.Broker, log: o.Logger,
		tracer: o.Tracer, onTr: o.OnTransition,
		stopCh: make(chan struct{}),
	}
	for _, r := range o.Rules {
		if err := r.Validate(); err != nil {
			panic("alert.New: " + err.Error())
		}
		st := &ruleState{rule: r, state: StateInactive, since: o.Now()}
		if e.reg != nil {
			st.firing = e.reg.Gauge(obs.Label("alerts_firing", "rule", r.Name))
		}
		e.states = append(e.states, st)
	}
	return e
}

// Rules returns the engine's rule set.
func (e *Engine) Rules() []Rule {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Rule, len(e.states))
	for i, st := range e.states {
		out[i] = st.rule
	}
	return out
}

// Status snapshots every rule's state, sorted by name.
func (e *Engine) Status() []RuleStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RuleStatus, 0, len(e.states))
	for _, st := range e.states {
		out = append(out, RuleStatus{
			Rule: st.rule, State: st.state, Since: st.since,
			Value: st.value, HasValue: st.hasValue,
			Fires: st.fires, LastFire: st.lastFire,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule.Name < out[j].Rule.Name })
	return out
}

// FiringCount returns how many rules are currently firing.
func (e *Engine) FiringCount() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, st := range e.states {
		if st.state == StateFiring {
			n++
		}
	}
	return n
}

// evalRule evaluates one rule's condition against the store.
func (e *Engine) evalRule(r Rule) (violating bool, value float64, hasValue bool) {
	switch r.Kind {
	case KindThreshold:
		v, ok := e.db.Eval(tsdb.Query{Metric: r.Metric, Func: r.Func, Window: r.Window(), Agg: r.Agg})
		if !ok {
			return false, 0, false // no data is absence's business, not ours
		}
		return compare(v, r.Op, r.Value), v, true
	case KindAbsence:
		_, ok := e.db.Eval(tsdb.Query{Metric: r.Metric, Func: tsdb.FuncLast, Window: r.Window(), Agg: r.Agg})
		return !ok, 0, ok
	case KindRatio:
		num := e.sumRates(r.Num, r.Window())
		den := e.sumRates(r.Den, r.Window())
		if den <= r.MinDen || den == 0 {
			return false, 0, false // too little traffic to judge
		}
		ratio := num / den
		return compare(ratio, r.Op, r.Value), ratio, true
	}
	return false, 0, false
}

func (e *Engine) sumRates(patterns []string, window time.Duration) float64 {
	total := 0.0
	for _, p := range patterns {
		if v, ok := e.db.Eval(tsdb.Query{Metric: p, Func: tsdb.FuncRate, Window: window, Agg: "sum"}); ok {
			total += v
		}
	}
	return total
}

// EvalOnce runs one evaluation pass at the engine clock's current time and
// returns the transitions it produced (already emitted to the registry,
// broker, log and OnTransition hook).
func (e *Engine) EvalOnce() []Transition {
	if e == nil {
		return nil
	}
	now := e.now()
	var trs []Transition

	e.mu.Lock()
	for _, st := range e.states {
		violating, value, hasValue := e.evalRule(st.rule)
		st.value, st.hasValue = value, hasValue
		switch st.state {
		case StateInactive:
			if violating {
				st.state, st.since = StatePending, now
				trs = append(trs, Transition{Rule: st.rule, From: StateInactive, To: StatePending, At: now, Value: value, HasValue: hasValue})
				// A rule with no dwell fires in the same pass it pends.
				if now.Sub(st.since) >= st.rule.For() {
					trs = append(trs, e.fireLocked(st, now, value, hasValue))
				}
			}
		case StatePending:
			if !violating {
				st.state, st.since = StateInactive, now
				trs = append(trs, Transition{Rule: st.rule, From: StatePending, To: StateInactive, At: now, Value: value, HasValue: hasValue})
			} else if now.Sub(st.since) >= st.rule.For() {
				trs = append(trs, e.fireLocked(st, now, value, hasValue))
			}
		case StateFiring:
			if violating {
				st.clearSince = time.Time{} // re-arm: the clear streak broke
			} else {
				if st.clearSince.IsZero() {
					st.clearSince = now
				}
				if now.Sub(st.clearSince) >= st.rule.Keep() {
					st.state, st.since, st.clearSince = StateInactive, now, time.Time{}
					if st.firing != nil {
						st.firing.Set(0)
					}
					trs = append(trs, Transition{Rule: st.rule, From: StateFiring, To: StateResolved, At: now, Value: value, HasValue: hasValue})
				}
			}
		}
	}
	e.mu.Unlock()

	if len(trs) > 0 {
		e.emit(trs)
	}
	return trs
}

// fireLocked moves a pending rule to firing. Callers hold e.mu.
func (e *Engine) fireLocked(st *ruleState, now time.Time, value float64, hasValue bool) Transition {
	st.state, st.since, st.clearSince = StateFiring, now, time.Time{}
	st.fires++
	st.lastFire = now
	if st.firing != nil {
		st.firing.Set(1)
	}
	return Transition{Rule: st.rule, From: StatePending, To: StateFiring, At: now, Value: value, HasValue: hasValue}
}

// emit publishes transitions to the metric registry, the SSE broker, the
// structured log (correlated to an alert.eval span) and the hook.
func (e *Engine) emit(trs []Transition) {
	var sp *span.Span
	if e.tracer != nil {
		sp = e.tracer.Root("alert.eval")
		sp.SetAttr("alert.transitions", len(trs))
		defer sp.End()
	}
	for _, tr := range trs {
		if e.reg != nil {
			e.reg.Counter(obs.Label("alert_transitions_total", "rule", tr.Rule.Name, "to", tr.To)).Inc()
		}
		e.broker.Publish(obs.StreamEvent{Kind: "alert", Data: map[string]any{
			"rule": tr.Rule.Name, "severity": severityOrDefault(tr.Rule.Severity),
			"from": tr.From, "state": tr.To,
			"value": tr.Value, "limit": tr.Rule.Value,
			"detail": tr.Rule.Detail,
		}})
		if e.log != nil {
			ctx := span.NewContext(context.Background(), sp)
			lvl := slog.LevelWarn
			if tr.To == StateInactive || tr.To == StateResolved {
				lvl = slog.LevelInfo
			}
			e.log.LogAttrs(ctx, lvl, "alert_transition",
				slog.String("rule", tr.Rule.Name),
				slog.String("severity", severityOrDefault(tr.Rule.Severity)),
				slog.String("from", tr.From),
				slog.String("to", tr.To),
				slog.Float64("value", tr.Value),
				slog.Float64("limit", tr.Rule.Value),
			)
		}
		sp.AddEvent("alert."+tr.To, span.Attr{Key: "rule", Value: tr.Rule.Name})
		if e.onTr != nil {
			e.onTr(tr)
		}
	}
}

func severityOrDefault(s string) string {
	if s == "" {
		return SevWarn
	}
	return s
}

// Start launches the evaluation ticker. Idempotent; no-op after Stop.
func (e *Engine) Start() {
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.started || e.stopped {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.mu.Unlock()
	go func() {
		t := time.NewTicker(e.every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				e.EvalOnce()
			case <-e.stopCh:
				return
			}
		}
	}()
}

// Stop ends the evaluation ticker. Idempotent.
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	e.stopped = true
	close(e.stopCh)
}
