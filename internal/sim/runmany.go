package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim/ensemble"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// defaultLaneWidth is the SoA block width RunMany picks when BatchConfig
// leaves Lanes zero: 8 lanes pack each species row into one 64-byte cache
// line, and wider blocks showed no further gain on the ring benchmarks.
const defaultLaneWidth = 8

// BatchConfig describes a multi-run simulation: N runs of one network,
// sharing a compiled kernel; SSA runs without per-run hooks share SoA
// ensemble blocks, and every other run goes through Run on its own.
type BatchConfig struct {
	// Base is the per-run configuration template. Its Seed is the ensemble
	// base seed (per-run seeds derive from it unless Seeds is given); its
	// Kernel sink, when non-nil, accumulates the whole batch's hot-path
	// counters after completion.
	Base Config

	// Runs is the number of runs. Zero with a non-empty Seeds list means
	// len(Seeds).
	Runs int

	// Seeds optionally pins each run's RNG stream seed; when nil, run i
	// uses batch.DeriveSeed(Base.Seed, i) — the same SplitMix64 derivation
	// the batch engine applies to sweep points, so RunMany reproduces the
	// per-point seeds of the hand-rolled loops it replaces.
	Seeds []int64

	// Configure, when non-nil, customizes run i's config after the seed is
	// assigned (sweep points override Rates, jobs attach watchers, ...).
	// SSA runs whose configs end up identical — and which carry no events,
	// observer or watchers — share SoA blocks; anything else runs alone
	// through Run with the shared kernel.
	Configure func(i int, cfg *Config)

	// Lanes is the SoA block width; 0 picks the default (8), 1 degenerates
	// to one-lane blocks (the bit-identity reference).
	Lanes int

	// Workers fans blocks and single runs out over a batch worker pool
	// (per-job spans, queue-wait metrics, resource attribution). 0 runs
	// everything inline on the calling goroutine.
	Workers int

	// FinalsOnly skips trajectory materialization: Ensemble.Traces stays
	// nil and only final states are recorded. Firing sequences are
	// unchanged — finals match trace-mode runs exactly — but sweep
	// workloads that never read trajectories skip their dominant per-run
	// cost (trace allocation and sample emission).
	FinalsOnly bool

	// OnResult, when non-nil, is called once per run as it completes, with
	// the run's trace (nil in finals-only mode or on error). When Workers
	// fans runs out, calls may come from worker goroutines concurrently.
	OnResult func(i int, tr *trace.Trace, err error)

	// Gate, when non-nil, is acquired around each unit of simulation work
	// (one SoA block or one single run) — the server wraps its global sim
	// semaphore here. The returned release func is called when the unit
	// finishes; a Gate error fails the unit's runs.
	Gate func(ctx context.Context) (release func(), err error)

	// Metrics, when non-nil, receives the RegistryObserver families of
	// every run as it ends and, when Workers fans runs out, the batch
	// pool's execution metrics (queue wait, job durations, per-worker job
	// counts). Laned and single runs of the same seeds report the same run,
	// step and selection counts.
	Metrics *obs.Registry

	// JobTimeout bounds each unit of work when Workers > 0 (batch
	// per-job timeout semantics); zero means no per-unit timeout.
	JobTimeout time.Duration
}

// runGroupKey identifies configs that may share an SoA block: everything
// the ensemble engine holds block-wide. Seed is per-lane and excluded.
type runGroupKey struct {
	rates       Rates
	tEnd        float64
	sampleEvery float64
	unit        float64
	maxFirings  int
}

// runItem is one unit of execution: a laned SoA block or a single run
// through Run.
type runItem struct {
	runs  []int    // global run indices, in order
	cfgs  []Config // normalized configs, parallel to runs
	laned bool
}

// RunMany simulates Runs instances of the network and returns their
// results as a trace.Ensemble. It is the single multi-run entry point:
// rate-ratio sweeps, stochastic ensembles and grid experiments all route
// through it instead of looping over Run.
//
// The network structure is compiled once and bound once per distinct rate
// assignment, so a sweep walks the dependency graph once instead of once
// per run. SSA runs that may share a block — no events, no observer, no
// watchers — are grouped by identical parameters and advanced in lane
// blocks through internal/sim/ensemble, with per-lane SplitMix64 streams
// keeping every lane bit-identical to a Run of the same seed (itself a
// one-lane block). Everything else (ODE, observed/watched/evented SSA
// runs) runs alone through Run with the shared kernel.
//
// Per-run failures are recorded in the ensemble's Errs slots (and reported
// through OnResult); the returned error is non-nil only for configuration
// errors, network validation failures, and context cancellation.
func RunMany(ctx context.Context, n *crn.Network, bc BatchConfig) (*trace.Ensemble, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	runs := bc.Runs
	if runs == 0 {
		runs = len(bc.Seeds)
	}
	if runs <= 0 {
		return nil, fmt.Errorf("sim: RunMany needs Runs > 0 or explicit Seeds")
	}
	if len(bc.Seeds) > 0 && len(bc.Seeds) != runs {
		return nil, fmt.Errorf("sim: RunMany got %d seeds for %d runs", len(bc.Seeds), runs)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	lanes := bc.Lanes
	if lanes <= 0 {
		lanes = defaultLaneWidth
	}

	// Materialize and normalize every run's config up front; configuration
	// errors fail the whole batch before any simulation starts.
	cfgs := make([]Config, runs)
	for i := 0; i < runs; i++ {
		cfg := bc.Base
		if len(bc.Seeds) > 0 {
			cfg.Seed = bc.Seeds[i]
		} else if cfg.Method != ODE {
			cfg.Seed = batch.DeriveSeed(bc.Base.Seed, i)
		}
		if bc.Configure != nil {
			bc.Configure(i, &cfg)
		}
		nc, err := cfg.normalize()
		if err == nil {
			err = nc.checkTrace(n)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: RunMany run %d: %w", i, err)
		}
		cfgs[i] = nc
	}

	// Compile the structure once; bind once per distinct rate assignment.
	structure := kernel.NewStructure(n)
	bindings := map[Rates]*kernel.Compiled{}
	bind := func(r Rates) *kernel.Compiled {
		if k, ok := bindings[r]; ok {
			return k
		}
		k := structure.Bind(r.Of)
		bindings[r] = k
		return k
	}
	for i := range cfgs {
		cfgs[i].compiled = bind(cfgs[i].Rates)
	}

	items := groupRuns(cfgs, lanes)

	ens := trace.NewEnsemble(n.SpeciesNames(), runs)
	var (
		mu    sync.Mutex
		agg   kernel.Stats
		names = n.SpeciesNames()
	)
	record := func(i int, tr *trace.Trace, finals []float64, err error) {
		mu.Lock()
		ens.Errs[i] = err
		ens.Finals[i] = finals
		if !bc.FinalsOnly {
			ens.Traces[i] = tr
		}
		mu.Unlock()
		if bc.OnResult != nil {
			if bc.FinalsOnly {
				tr = nil
			}
			bc.OnResult(i, tr, err)
		}
	}

	// One stateless observer records every run, inline or pooled, straight
	// into Metrics.
	var pointObs obs.Observer
	if bc.Metrics != nil {
		pointObs = obs.NewRegistryObserver(bc.Metrics)
	}
	exec := func(ctx context.Context, it *runItem) error {
		if bc.Gate != nil {
			release, err := bc.Gate(ctx)
			if err != nil {
				for _, i := range it.runs {
					record(i, nil, nil, err)
				}
				return err
			}
			defer release()
		}
		var stats kernel.Stats
		var firstErr error
		if it.laned {
			firstErr = runLanedItem(ctx, it, n, names, bc.FinalsOnly, &stats, pointObs, record)
		} else {
			i := it.runs[0]
			cfg := it.cfgs[0]
			cfg.Kernel = &stats
			if pointObs != nil {
				cfg.Obs = obs.Multi(cfg.Obs, pointObs)
			}
			tr, err := Run(ctx, n, cfg)
			var finals []float64
			if err == nil {
				finals = finalRow(tr, names)
			}
			record(i, tr, finals, err)
			firstErr = err
		}
		mu.Lock()
		agg.Add(stats)
		mu.Unlock()
		return firstErr
	}

	var runErr error
	if bc.Workers <= 0 {
		for idx := range items {
			if err := ctx.Err(); err != nil {
				for _, i := range items[idx].runs {
					record(i, nil, nil, err)
				}
				runErr = err
				continue
			}
			exec(ctx, &items[idx])
		}
	} else {
		// Per-run failures are recorded in the ensemble, not escalated;
		// only cancellation fails the batch as a whole.
		batch.Run(ctx, len(items), func(ctx context.Context, i int) error {
			return exec(ctx, &items[i])
		}, batch.Options{
			Workers:    bc.Workers,
			Policy:     batch.CollectAll,
			Metrics:    bc.Metrics,
			JobTimeout: bc.JobTimeout,
		})
		if err := ctx.Err(); err != nil {
			runErr = err
			// Items skipped by the cancelled pool never reported; mark
			// their runs interrupted instead of leaving empty slots.
			for i := range ens.Errs {
				if ens.Errs[i] == nil && ens.Finals[i] == nil {
					ens.Errs[i] = err
				}
			}
		}
	}

	if bc.Base.Kernel != nil {
		bc.Base.Kernel.Add(agg)
	}
	if sp := span.FromContext(ctx); sp != nil {
		sp.SetAttr("ensemble.runs", runs)
		sp.SetAttr("ensemble.lanes", lanes)
		sp.SetAttr("ensemble.blocks", agg.EnsembleBlocks)
		if agg.LaneSlots > 0 {
			sp.SetAttr("ensemble.occupancy", agg.Occupancy())
		}
	}
	if runErr != nil {
		return ens, fmt.Errorf("sim: RunMany interrupted: %w", runErr)
	}
	return ens, nil
}

// runLanedItem executes one SoA block and records per-lane results. When
// pointObs is non-nil it receives per-lane SimStart/SimEnd events, with the
// block's kernel counters attached to the last lane's SimEnd so metric
// totals stay exact.
func runLanedItem(ctx context.Context, it *runItem, n *crn.Network, names []string,
	finalsOnly bool, stats *kernel.Stats, pointObs obs.Observer,
	record func(int, *trace.Trace, []float64, error)) error {

	cfg := it.cfgs[0]
	seeds := make([]int64, len(it.runs))
	for j := range it.cfgs {
		seeds[j] = it.cfgs[j].Seed
	}
	var sp *span.Span
	if parent := span.FromContext(ctx); parent != nil {
		sp = parent.Child("sim.ensemble")
		sp.SetAttr("sim.method", "ssa")
		sp.SetAttr("sim.t_end", cfg.TEnd)
		sp.SetAttr("sim.species", n.NumSpecies())
		sp.SetAttr("sim.reactions", n.NumReactions())
		sp.SetAttr("ensemble.lanes", len(seeds))
		sp.SetAttr("ensemble.first_run", it.runs[0])
	}
	if pointObs != nil {
		start := obs.SimStart{Sim: "ssa", T0: 0, T1: cfg.TEnd, Species: names, Reactions: reactionNames(n)}
		for range it.runs {
			pointObs.OnSimStart(start)
		}
	}
	startWall := time.Now()
	res, err := ensemble.Run(ctx, ensemble.Config{
		K:           cfg.compiled,
		Names:       names,
		Init:        n.Init(),
		Unit:        cfg.Unit,
		TEnd:        cfg.TEnd,
		SampleEvery: cfg.SampleEvery,
		MaxFirings:  cfg.MaxFirings,
		Seeds:       seeds,
		FinalsOnly:  finalsOnly,
		Stats:       stats,
	})
	wall := time.Since(startWall).Seconds()
	if err != nil && res == nil {
		for _, i := range it.runs {
			record(i, nil, nil, err)
		}
		if sp != nil {
			sp.SetError(err)
			sp.End()
		}
		return err
	}
	var firstErr error
	for j, i := range it.runs {
		var tr *trace.Trace
		if res.Traces != nil {
			tr = res.Traces[j]
		}
		if res.Errs[j] != nil && firstErr == nil {
			firstErr = res.Errs[j]
		}
		record(i, tr, res.Finals[j], res.Errs[j])
		if pointObs != nil {
			e := obs.SimEnd{Sim: "ssa", T: cfg.TEnd, Steps: res.Firings[j], WallSeconds: wall}
			if res.Errs[j] != nil {
				e.T, e.Err = res.Times[j], res.Errs[j].Error()
			}
			if j == len(it.runs)-1 {
				e.Kernel = kernelStats(*stats)
			}
			pointObs.OnSimEnd(e)
		}
	}
	if sp != nil {
		sp.SetAttr("ensemble.occupancy", stats.Occupancy())
		sp.SetError(firstErr)
		sp.End()
	}
	return firstErr
}

// laneable reports whether a run may share an SoA block with other runs:
// exact SSA with no events, observer or watchers. Events and watchers carry
// per-run state, so such a run is a hooked one-lane block of its own, which
// Run builds; a run's own observer expects its own start and end, so an
// observed run goes through Run too (unhooked). ODE runs have no lanes at
// all.
func laneable(cfg Config) bool {
	return cfg.Method == SSA && len(cfg.Events) == 0 && cfg.Obs == nil && len(cfg.Watchers) == 0
}

// groupRuns partitions runs into execution items: maximal groups of
// consecutive laneable runs with identical block-wide parameters, chunked
// into width-lanes blocks, and single-run items for the rest.
// Consecutive grouping preserves run ordering in the common sweep layouts
// (runs-major within a sweep point), where it loses nothing against global
// grouping.
func groupRuns(cfgs []Config, lanes int) []runItem {
	var items []runItem
	flush := func(group []int) {
		for len(group) > 0 {
			w := lanes
			if w > len(group) {
				w = len(group)
			}
			it := runItem{laned: true}
			for _, i := range group[:w] {
				it.runs = append(it.runs, i)
				it.cfgs = append(it.cfgs, cfgs[i])
			}
			items = append(items, it)
			group = group[w:]
		}
	}
	var group []int
	var key runGroupKey
	for i := range cfgs {
		if !laneable(cfgs[i]) {
			flush(group)
			group = nil
			items = append(items, runItem{runs: []int{i}, cfgs: []Config{cfgs[i]}})
			continue
		}
		k := runGroupKey{
			rates:       cfgs[i].Rates,
			tEnd:        cfgs[i].TEnd,
			sampleEvery: cfgs[i].SampleEvery,
			unit:        cfgs[i].Unit,
			maxFirings:  cfgs[i].MaxFirings,
		}
		if len(group) > 0 && k != key {
			flush(group)
			group = nil
		}
		key = k
		group = append(group, i)
	}
	flush(group)
	return items
}

// finalRow extracts a trace's final state in species order.
func finalRow(tr *trace.Trace, names []string) []float64 {
	f := make([]float64, len(names))
	for j, name := range names {
		f[j] = tr.Final(name)
	}
	return f
}
