package sim

import (
	"context"
	"math"

	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/sim/ensemble"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// ErrMaxFirings reports that an SSA run used up Config.MaxFirings before
// reaching TEnd. The run returns no trace (RunMany: no finals), since its
// state at the cap is not the state at TEnd.
var ErrMaxFirings = ensemble.ErrMaxFirings

// runSSA is the exact stochastic backend of Run: a one-lane block of the
// ensemble engine (internal/sim/ensemble), the engine RunMany's laned
// sweeps use too. cfg has been normalized and the network validated.
// Initial concentrations are rounded to molecule counts at Unit molecules
// per concentration unit, and the returned trace reports concentrations
// (counts / Unit) so it is directly comparable with ODE output.
//
// Propensity convention: a reaction with deterministic rate law
// k·Π[S_i]^c_i has propensity k·Ω·Π( falling(n_i, c_i) / Ω^c_i ), which
// makes the SSA mean converge to the ODE of Deriv as Ω grows.
//
// A run with events or watchers hooks the block (ssaHooks); the hooks only
// read the state unless an event rewrites the counts, so what watches a run
// never changes its trajectory. Only events stop the firing loop after
// every firing (eventHooks); watchers alone run per trace row. An observer
// alone does not hook the block: it sees the run's start, and its end with
// the engine's counters.
func runSSA(ctx context.Context, n *crn.Network, cfg Config) (*trace.Trace, error) {
	k := cfg.compiled
	if k == nil {
		k = kernel.Compile(n, cfg.Rates.Of)
	}
	// The block's lane-occupancy counters describe RunMany's sweeps; a
	// single run reports the engine's own work only.
	var ks kernel.Stats
	ec := ensemble.Config{
		K:           k,
		Names:       n.SpeciesNames(),
		Init:        n.Init(),
		Unit:        cfg.Unit,
		TEnd:        cfg.TEnd,
		SampleEvery: cfg.SampleEvery,
		MaxFirings:  cfg.MaxFirings,
		Seeds:       []int64{cfg.Seed},
		Stats:       &ks,
	}
	var h *ssaHooks
	if len(cfg.Events) > 0 || len(cfg.Watchers) > 0 {
		h = &ssaHooks{watchers: cfg.Watchers}
		ec.Hooks = h
	}
	if len(cfg.Events) > 0 {
		conc := make([]float64, n.NumSpecies())
		for i, c := range n.Init() {
			conc[i] = math.Round(c*cfg.Unit) / cfg.Unit
		}
		for _, e := range cfg.Events {
			if err := e.prepare(n, conc); err != nil {
				return nil, err
			}
		}
		ec.Hooks = &eventHooks{ssaHooks: h, k: k, unit: cfg.Unit, events: cfg.Events,
			st: State{net: n, y: conc}}
	}
	sink, startWall, err := startRun(n, "ssa", cfg.TEnd, cfg.Obs, cfg.Watchers)
	if err != nil {
		return nil, err
	}
	if h != nil {
		h.sink = sink
	}

	res, err := ensemble.Run(ctx, ec)
	run := kernel.Stats{
		FenwickSelects:  ks.FenwickSelects,
		LinearSelects:   ks.LinearSelects,
		ExactRecomputes: ks.ExactRecomputes,
	}
	if h != nil {
		run.FullLoops = 1
	} else {
		run.TightLoops = 1
	}
	if cfg.Kernel != nil {
		cfg.Kernel.Add(run)
	}
	var tr *trace.Trace
	fired, end := 0, 0.0
	if res != nil {
		tr, fired, err = res.Traces[0], res.Firings[0], res.Errs[0]
		end = cfg.TEnd
		if err != nil {
			end = res.Times[0]
		}
	}
	endRun(obs.SimEnd{Sim: "ssa", T: end, Steps: fired, Kernel: kernelStats(run)},
		cfg.Obs, sink, cfg.Watchers, startWall, err)
	return tr, err
}

// ssaHooks are a hooked run's per-sample callbacks (ensemble.Hooks): the
// watchers.
type ssaHooks struct {
	sink     obs.Observer // watcher event sink, never nil
	watchers []obs.Watcher
}

func (h *ssaHooks) Sampled(t float64, conc []float64) {
	obs.ObserveAll(h.watchers, t, conc, h.sink)
}

// eventHooks add the injection events to a run's hooks
// (ensemble.FiringHooks): their probes read a concentration view kept
// current for the species each firing changes.
type eventHooks struct {
	*ssaHooks
	k      *kernel.Compiled
	unit   float64
	events []*Event
	st     State // the events' concentration view
}

func (h *eventHooks) Fired(t float64, rx int, counts []float64) bool {
	conc := h.st.y
	spec, _ := h.k.Deltas(rx)
	for _, sp := range spec {
		conc[sp] = counts[sp] / h.unit
	}
	fired := false
	for _, e := range h.events {
		if e.step(t, &h.st) {
			fired = true
		}
	}
	if fired {
		// Events rewrite the concentration view; fold it back into
		// molecule counts by re-rounding.
		for i := range counts {
			counts[i] = math.Round(conc[i] * h.unit)
			conc[i] = counts[i] / h.unit
		}
	}
	return fired
}
