// Package obs is the runtime instrumentation layer: a zero-dependency
// (stdlib-only) set of event hooks, a concurrency-safe metrics registry and
// machine-readable telemetry sinks shared by every simulator in the
// repository.
//
// The DAC 2011 constructs make *dynamic* correctness claims — absence
// indicators may accumulate only while their colour class is empty, phase
// hand-offs must be sharpened by the positive-feedback dimer, the molecular
// clock must tick with a stable period — and this package is how those
// claims are watched while a simulation runs instead of reconstructed
// post-hoc from a dense trace.Trace:
//
//   - Observer receives run-level and semantic events: a run's start and
//     end (SimEnd carries the step, kernel and solver counters), clock
//     edges, phase changes and health alerts. It never sees individual
//     steps or firings, so observing a run does not change how the
//     simulator executes it.
//   - Registry (registry.go) aggregates counters, gauges and histograms and
//     renders them as Prometheus text exposition or a human summary.
//   - JSONL (jsonl.go) streams events as JSON lines for offline analysis.
//   - Watchers (watch.go, health.go) derive semantic events — clock edges,
//     phase changes, clock-health alerts — from raw state samples.
package obs

import (
	"fmt"
	"io"
	"time"
)

// SimStart announces a simulation run. Species and Reactions are the
// network's display tables, indexed consistently with the integer fields of
// later events; sinks may retain them for the duration of the run.
type SimStart struct {
	Sim       string   // "ode" or "ssa"
	T0, T1    float64  // simulated time span
	Species   []string // species names by index
	Reactions []string // reaction display names by index
}

// SimEnd closes a simulation run.
type SimEnd struct {
	Sim         string
	T           float64 // simulated time reached
	Steps       int     // accepted ODE steps or SSA firings
	WallSeconds float64 // wall-clock duration of the run
	Err         string  // non-empty if the run failed
	// Kernel carries the run's kernel hot-path counters (all zero for ODE
	// runs, which have no selector machinery).
	Kernel KernelStats
	// ODE carries the deterministic backend's solver decision and stiff
	// integrator effort (zero for stochastic runs).
	ODE ODEStats
}

// ODEStats reports the ODE backend's solver selection and integration
// effort, mirroring the sim layer's solver knob without importing it. An
// auto run that never passes the stiffness test reports Solver "auto"
// with Switched false and zero stiff counters.
type ODEStats struct {
	Solver         string  // requested solver: "auto", "explicit" or "stiff"
	Switched       bool    // auto run handed off to the stiff integrator
	SwitchT        float64 // simulated time of the handoff (0 if none)
	StiffSteps     int     // accepted steps taken by the stiff integrator
	JacEvals       int     // analytic Jacobian refills
	Factorizations int     // LU factorizations of the shifted matrix
	Solves         int     // triangular backsolves
	Rejected       int     // error-control rejections (both integrators)
	Evals          int     // derivative evaluations (both integrators)
	// HRho and WorkRatio are an auto run's stiffness evidence: h·ρ (step
	// times dominant-eigenvalue estimate) where the test judged, and the
	// predicted explicit-to-stiff work ratio there. A handoff's ratio
	// exceeds 1; a run that stayed explicit reports the largest ratio
	// judged, or zeros if its step never reached the stability edge.
	HRho      float64
	WorkRatio float64
}

// IsZero reports whether the event carries no ODE solver information.
func (o ODEStats) IsZero() bool { return o == ODEStats{} }

// KernelStats mirrors kernel.Stats — the simulator's hot-path decision
// counters — without importing the sim layer (obs stays stdlib-only at the
// bottom of the dependency graph). The sim package converts at run end.
type KernelStats struct {
	FenwickSelects  uint64 // SSA firings selected via the Fenwick descent
	LinearSelects   uint64 // SSA firings selected via the linear scan
	ExactRecomputes uint64 // full propensity rebuilds
	TightLoops      uint64 // SSA runs without hooks (the tight loop)
	FullLoops       uint64 // SSA runs with events or watchers (the hooked loop)
	EnsembleBlocks  uint64 // SoA ensemble blocks executed
	EnsemblePasses  uint64 // macro passes over ensemble lanes
	LaneSteps       uint64 // ensemble lane advances (active lanes over passes)
	LaneSlots       uint64 // ensemble lane slots available (width over passes)
}

// IsZero reports whether no kernel counter fired.
func (k KernelStats) IsZero() bool { return k == KernelStats{} }

// ClockEdge reports a Schmitt-triggered threshold crossing of a watched
// species — the molecular clock's phase species rising into (Rising=true) or
// falling out of (Rising=false) its active phase.
type ClockEdge struct {
	T       float64
	Species string
	Rising  bool
	Level   float64 // threshold that was crossed
}

// PhaseChange reports that the dominant phase of a watched group changed,
// e.g. the tri-phase heartbeat moving red -> green. From is empty for the
// first determination of a run.
type PhaseChange struct {
	T        float64
	From, To string
}

// Alert is a structured health finding raised by an analyzer (ClockHealth):
// the tri-phase machinery violated one of the paper's dynamic invariants.
// Rule is the machine-readable discriminator clients branch on.
type Alert struct {
	T    float64
	Rule string // "phase_overlap", "indicator_leak", "period_jitter", "duty_drift"
	// Subject names the offending phase group, species or indicator.
	Subject string
	// Value is the measured quantity and Limit the threshold it violated.
	Value, Limit float64
	Detail       string // human-readable explanation
}

// Observer receives instrumentation events from the simulators. All methods
// are called from the simulation goroutine; implementations that are shared
// across concurrent simulations must synchronize internally (RegistryObserver
// and JSONL do; Progress keeps per-run state and must not be shared by
// *concurrent* runs).
//
// Embed Base to implement only a subset of the interface.
type Observer interface {
	OnSimStart(SimStart)
	OnClockEdge(ClockEdge)
	OnPhaseChange(PhaseChange)
	OnAlert(Alert)
	OnSimEnd(SimEnd)
}

// Base is a no-op Observer for embedding.
type Base struct{}

func (Base) OnSimStart(SimStart)       {}
func (Base) OnClockEdge(ClockEdge)     {}
func (Base) OnPhaseChange(PhaseChange) {}
func (Base) OnAlert(Alert)             {}
func (Base) OnSimEnd(SimEnd)           {}

// Nop is a ready-made no-op Observer, used by the simulators as the event
// sink for watchers when no real observer is configured.
var Nop Observer = Base{}

type multi []Observer

func (m multi) OnSimStart(e SimStart) {
	for _, o := range m {
		o.OnSimStart(e)
	}
}
func (m multi) OnClockEdge(e ClockEdge) {
	for _, o := range m {
		o.OnClockEdge(e)
	}
}
func (m multi) OnPhaseChange(e PhaseChange) {
	for _, o := range m {
		o.OnPhaseChange(e)
	}
}
func (m multi) OnAlert(e Alert) {
	for _, o := range m {
		o.OnAlert(e)
	}
}
func (m multi) OnSimEnd(e SimEnd) {
	for _, o := range m {
		o.OnSimEnd(e)
	}
}

// Multi fans events out to every non-nil observer. It returns nil when all
// arguments are nil (preserving the simulators' fast path) and the observer
// itself when exactly one is non-nil.
func Multi(obs ...Observer) Observer {
	var live multi
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return live
	}
}

// Progress prints coarse progress lines (every Every fraction of the
// simulated horizon, default 10%) to W — crnsim's -progress flag. It is an
// Observer for the start and end lines and a Watcher for the milestones, so
// it must be attached as both. It keeps per-run state and must not be
// shared by concurrent runs.
type Progress struct {
	Base
	W     io.Writer
	Every float64 // fraction of the horizon between lines; default 0.1

	t0, t1  float64
	next    float64
	samples int
	start   time.Time
}

// OnSimStart resets the milestone tracker for a new run.
func (p *Progress) OnSimStart(e SimStart) {
	p.t0, p.t1 = e.T0, e.T1
	p.next = p.every()
	p.samples = 0
	p.start = time.Now()
	fmt.Fprintf(p.W, "progress: %s start t=%g..%g (%d species, %d reactions)\n",
		e.Sim, e.T0, e.T1, len(e.Species), len(e.Reactions))
}

func (p *Progress) every() float64 {
	if p.Every <= 0 {
		return 0.1
	}
	return p.Every
}

// Bind implements Watcher; progress reads no species.
func (p *Progress) Bind([]string) error { return nil }

// Observe prints a line each time the run crosses a milestone fraction.
func (p *Progress) Observe(t float64, _ []float64, _ Observer) {
	p.samples++
	if p.t1 <= p.t0 {
		return
	}
	frac := (t - p.t0) / (p.t1 - p.t0)
	if frac < p.next {
		return
	}
	for p.next <= frac {
		p.next += p.every()
	}
	fmt.Fprintf(p.W, "progress: %3.0f%% t=%-10.4g samples=%-8d elapsed=%s\n",
		100*frac, t, p.samples, time.Since(p.start).Round(time.Millisecond))
}

// Finish implements Watcher; OnSimEnd prints the closing line.
func (p *Progress) Finish(float64, Observer) {}

// OnSimEnd prints the closing summary line.
func (p *Progress) OnSimEnd(e SimEnd) {
	status := "done"
	if e.Err != "" {
		status = "FAILED: " + e.Err
	}
	fmt.Fprintf(p.W, "progress: %s %s t=%g steps=%d wall=%.3fs\n",
		e.Sim, status, e.T, e.Steps, e.WallSeconds)
}
