package obs

import (
	"repro/internal/obs/span"
)

// SpanObserver adapts a span.Span into an Observer: semantic simulation
// events (clock edges, phase changes, alerts) become span events, and the
// run's closing totals (steps, wall seconds, error) become span attributes —
// so a single exported trace shows not just that a sim ran but what its
// clockwork did. The span caps its event list; JSONL is the lossless
// channel.
//
// It keeps no state of its own; sharing rules follow the underlying Span,
// which is safe for concurrent use.
type SpanObserver struct {
	Base
	S *span.Span
}

// OnClockEdge records the edge as a span event.
func (o *SpanObserver) OnClockEdge(e ClockEdge) {
	dir := "fall"
	if e.Rising {
		dir = "rise"
	}
	o.S.AddEvent("clock_edge",
		span.Attr{Key: "t", Value: e.T},
		span.Attr{Key: "species", Value: e.Species},
		span.Attr{Key: "dir", Value: dir})
}

// OnPhaseChange records the transition as a span event.
func (o *SpanObserver) OnPhaseChange(e PhaseChange) {
	o.S.AddEvent("phase_change",
		span.Attr{Key: "t", Value: e.T},
		span.Attr{Key: "from", Value: e.From},
		span.Attr{Key: "to", Value: e.To})
}

// OnAlert records the health alert as a span event.
func (o *SpanObserver) OnAlert(e Alert) {
	o.S.AddEvent("alert",
		span.Attr{Key: "t", Value: e.T},
		span.Attr{Key: "rule", Value: e.Rule},
		span.Attr{Key: "subject", Value: e.Subject},
		span.Attr{Key: "value", Value: e.Value},
		span.Attr{Key: "limit", Value: e.Limit})
}

// OnSimEnd stamps the run's totals — and, for stochastic runs, the kernel
// hot-path counters — onto the span. Zero counters are skipped so ODE spans
// stay free of selector noise.
func (o *SpanObserver) OnSimEnd(e SimEnd) {
	o.S.SetAttr("sim.steps", e.Steps)
	o.S.SetAttr("sim.t_reached", e.T)
	o.S.SetAttr("sim.wall_seconds", e.WallSeconds)
	if od := e.ODE; !od.IsZero() {
		o.S.SetAttr("ode.solver", od.Solver)
		switches := 0
		if od.Switched {
			switches = 1
			o.S.SetAttr("ode.switch_t", od.SwitchT)
		}
		o.S.SetAttr("ode.switches", switches)
		if od.WorkRatio > 0 {
			o.S.SetAttr("ode.h_rho", od.HRho)
			o.S.SetAttr("ode.work_ratio", od.WorkRatio)
		}
		if od.StiffSteps > 0 {
			o.S.SetAttr("ode.stiff_steps", od.StiffSteps)
			o.S.SetAttr("ode.jac_evals", od.JacEvals)
			o.S.SetAttr("ode.factorizations", od.Factorizations)
		}
	}
	k := e.Kernel
	if k.IsZero() {
		return
	}
	if k.FenwickSelects > 0 {
		o.S.SetAttr("kernel.selects_fenwick", int64(k.FenwickSelects))
	}
	if k.LinearSelects > 0 {
		o.S.SetAttr("kernel.selects_linear", int64(k.LinearSelects))
	}
	if k.ExactRecomputes > 0 {
		o.S.SetAttr("kernel.exact_recomputes", int64(k.ExactRecomputes))
	}
	switch {
	case k.TightLoops > 0:
		o.S.SetAttr("kernel.ssa_loop", "tight")
	case k.FullLoops > 0:
		o.S.SetAttr("kernel.ssa_loop", "full")
	}
}
