package obs

import (
	"fmt"
	"math"
	"strings"
)

// ClockHealth is a Watcher that layers semantic *health analysis* on top of
// the raw edge/phase machinery: instead of merely reporting what the
// tri-phase clockwork does, it judges whether the paper's dynamic invariants
// hold and raises structured Alerts (through Observer.OnAlert) when they do
// not. Four rules are checked:
//
//   - phase_overlap: two phase groups simultaneously hold at least Threshold
//     mass. The tri-phase discipline guarantees mutual exclusion of phases —
//     overlap means a transfer fired before the previous colour drained.
//   - indicator_leak: an absence indicator is at or above LeakEps while its
//     own colour class holds at least Threshold mass. Indicators may only
//     accumulate while their colour class is empty; leakage means the fast
//     consumption reactions are mis-wired or overwhelmed.
//   - period_jitter: the relative standard deviation of the clock period
//     (intervals between onsets of the first phase group) exceeds MaxJitter.
//   - duty_drift: an indicator's duty cycle — fraction of simulated time at
//     or above LeakEps — exceeds MaxDuty at Finish, flagging a stalled phase.
//
// Episode semantics: the overlap and leak rules alert once when the
// violating condition begins and re-arm when it clears, so a long overlap
// window produces one alert, not one per sample. Jitter alerts at most once
// per run, as soon as enough cycles exist to judge; duty alerts at Finish.
//
// Like every Watcher, a ClockHealth keeps per-run state and must not be
// shared by concurrent simulations.
type ClockHealth struct {
	// Phases lists the colour classes in cycle order (e.g. the clock species
	// R, G, B, or the full member sets of a phases.Scheme). At least 2.
	Phases []PhaseGroup
	// Indicators optionally lists the absence-indicator species aligned with
	// Phases (Indicators[i] guards Phases[i]'s colour). Empty disables the
	// leak and duty rules.
	Indicators []string
	// Threshold is the mass at which a phase group counts as occupied —
	// typically half the circulating heartbeat amount. Required (> 0).
	Threshold float64
	// LeakEps is the indicator level counting as "present" for the leak and
	// duty rules; 0 selects Threshold/10.
	LeakEps float64
	// MaxJitter bounds the relative standard deviation of the clock period;
	// 0 selects 0.2, negative disables the rule.
	MaxJitter float64
	// MaxDuty bounds each indicator's duty cycle; 0 selects 0.5, negative
	// disables the rule.
	MaxDuty float64
	// MinCycles is how many completed periods must exist before jitter is
	// judged; 0 selects 3.
	MinCycles int

	phaseIdx [][]int
	indIdx   []int
	leakEps  float64
	maxJit   float64
	maxDuty  float64
	minCyc   int

	overlapOn bool
	leakOn    []bool
	jitterHit bool

	armed  bool // Schmitt state for period detection on Phases[0]
	onsets []float64

	dutyAbove []bool
	dutyTime  []float64
	lastT     float64
	t0        float64
	init      bool
}

// Bind resolves every phase group and indicator against the simulation's
// species table and validates the configuration.
func (w *ClockHealth) Bind(species []string) error {
	if len(w.Phases) < 2 {
		return fmt.Errorf("obs: clock health needs at least 2 phase groups, got %d", len(w.Phases))
	}
	if w.Threshold <= 0 {
		return fmt.Errorf("obs: clock health: Threshold must be positive, got %g", w.Threshold)
	}
	w.phaseIdx = make([][]int, len(w.Phases))
	for i, g := range w.Phases {
		idx, err := resolve(species, g.Species)
		if err != nil {
			return fmt.Errorf("obs: clock health group %q: %w", g.Name, err)
		}
		w.phaseIdx[i] = idx
	}
	if len(w.Indicators) > 0 && len(w.Indicators) != len(w.Phases) {
		return fmt.Errorf("obs: clock health: %d indicators for %d phase groups (must match)",
			len(w.Indicators), len(w.Phases))
	}
	idx, err := resolve(species, w.Indicators)
	if err != nil {
		return fmt.Errorf("obs: clock health: %w", err)
	}
	w.indIdx = idx

	w.leakEps = w.LeakEps
	if w.leakEps <= 0 {
		w.leakEps = w.Threshold / 10
	}
	w.maxJit = w.MaxJitter
	if w.maxJit == 0 {
		w.maxJit = 0.2
	}
	w.maxDuty = w.MaxDuty
	if w.maxDuty == 0 {
		w.maxDuty = 0.5
	}
	w.minCyc = w.MinCycles
	if w.minCyc <= 0 {
		w.minCyc = 3
	}

	w.overlapOn, w.jitterHit, w.armed, w.init = false, false, false, false
	w.leakOn = make([]bool, len(w.Indicators))
	w.onsets = w.onsets[:0]
	w.dutyAbove = make([]bool, len(w.Indicators))
	w.dutyTime = make([]float64, len(w.Indicators))
	return nil
}

func (w *ClockHealth) mass(i int, y []float64) float64 {
	m := 0.0
	for _, j := range w.phaseIdx[i] {
		m += y[j]
	}
	return m
}

// Observe evaluates the overlap, leak and jitter rules on one state sample
// and accumulates duty time. Alerts go to sink.OnAlert.
func (w *ClockHealth) Observe(t float64, y []float64, sink Observer) {
	masses := make([]float64, len(w.phaseIdx))
	for i := range w.phaseIdx {
		masses[i] = w.mass(i, y)
	}

	// phase_overlap: ≥ 2 groups occupied at once, alert once per episode.
	occupied := 0
	var names []string
	for i, m := range masses {
		if m >= w.Threshold {
			occupied++
			names = append(names, w.Phases[i].Name)
		}
	}
	if occupied >= 2 {
		if !w.overlapOn {
			w.overlapOn = true
			sink.OnAlert(Alert{
				T: t, Rule: "phase_overlap", Subject: strings.Join(names, "+"),
				Value: float64(occupied), Limit: 1,
				Detail: fmt.Sprintf("%d phase groups at or above %g simultaneously", occupied, w.Threshold),
			})
		}
	} else {
		w.overlapOn = false
	}

	// indicator_leak: indicator present while its colour class is occupied.
	for i, j := range w.indIdx {
		leak := y[j] >= w.leakEps && masses[i] >= w.Threshold
		if leak && !w.leakOn[i] {
			sink.OnAlert(Alert{
				T: t, Rule: "indicator_leak", Subject: w.Indicators[i],
				Value: y[j], Limit: w.leakEps,
				Detail: fmt.Sprintf("absence indicator %s at %g while phase %q holds %g",
					w.Indicators[i], y[j], w.Phases[i].Name, masses[i]),
			})
		}
		w.leakOn[i] = leak
	}

	// Period detection: Schmitt-triggered onsets of Phases[0] (rise through
	// Threshold, re-arm below Threshold/2).
	if !w.init {
		w.armed = masses[0] < w.Threshold/2
	} else {
		switch {
		case w.armed && masses[0] >= w.Threshold:
			w.armed = false
			w.onsets = append(w.onsets, t)
			w.checkJitter(sink)
		case !w.armed && masses[0] < w.Threshold/2:
			w.armed = true
		}
	}

	// Duty accumulation (left rectangle rule: each sample's state holds
	// until the next sample).
	if !w.init {
		w.t0, w.lastT = t, t
		for i, j := range w.indIdx {
			w.dutyAbove[i] = y[j] >= w.leakEps
		}
		w.init = true
		return
	}
	if dt := t - w.lastT; dt > 0 {
		for i := range w.indIdx {
			if w.dutyAbove[i] {
				w.dutyTime[i] += dt
			}
		}
		w.lastT = t
	}
	for i, j := range w.indIdx {
		w.dutyAbove[i] = y[j] >= w.leakEps
	}
}

// checkJitter judges period regularity once enough cycles exist; it alerts
// at most once per run.
func (w *ClockHealth) checkJitter(sink Observer) {
	if w.jitterHit || w.maxJit < 0 || len(w.onsets) < w.minCyc+1 {
		return
	}
	n := len(w.onsets) - 1
	mean := 0.0
	for i := 1; i < len(w.onsets); i++ {
		mean += w.onsets[i] - w.onsets[i-1]
	}
	mean /= float64(n)
	if mean <= 0 {
		return
	}
	varsum := 0.0
	for i := 1; i < len(w.onsets); i++ {
		d := (w.onsets[i] - w.onsets[i-1]) - mean
		varsum += d * d
	}
	rel := math.Sqrt(varsum/float64(n)) / mean
	if rel > w.maxJit {
		w.jitterHit = true
		sink.OnAlert(Alert{
			T: w.onsets[len(w.onsets)-1], Rule: "period_jitter",
			Subject: w.Phases[0].Name, Value: rel, Limit: w.maxJit,
			Detail: fmt.Sprintf("period relative std dev %.3g over %d cycles (mean period %.4g)",
				rel, n, mean),
		})
	}
}

// Finish closes the duty intervals and judges the duty_drift rule. A run
// that never produced a sample (or no simulated time) raises nothing.
func (w *ClockHealth) Finish(t float64, sink Observer) {
	if !w.init || w.maxDuty < 0 {
		return
	}
	if dt := t - w.lastT; dt > 0 {
		for i := range w.indIdx {
			if w.dutyAbove[i] {
				w.dutyTime[i] += dt
			}
		}
		w.lastT = t
	}
	span := w.lastT - w.t0
	if span <= 0 {
		return
	}
	for i, name := range w.Indicators {
		duty := w.dutyTime[i] / span
		if duty > w.maxDuty {
			sink.OnAlert(Alert{
				T: t, Rule: "duty_drift", Subject: name,
				Value: duty, Limit: w.maxDuty,
				Detail: fmt.Sprintf("indicator %s at or above %g for %.1f%% of the run",
					name, w.leakEps, 100*duty),
			})
		}
	}
}
