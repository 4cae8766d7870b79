// Package ensemble is the exact stochastic simulation engine (Gillespie's
// direct method). It advances a block of independent runs ("lanes") of the
// same network through the shared compiled kernel together, amortizing
// compilation, allocation and dependency-graph metadata across the block;
// a single run is a block one lane wide.
//
// State is laid out species × lanes (counts[sp*L+lane]) and reaction ×
// lanes (props[rx*L+lane]), so a block of 8 lanes packs each species row
// into one cache line: lanes of an ensemble trace similar trajectories
// through the network, and a round-robin macro-pass schedule keeps the rows
// the block is touching hot across all lanes of a pass. Each lane owns an
// independent SplitMix64 RNG stream seeded with its run seed and touches
// only its own column, so a lane's trajectory depends on its seed alone,
// never on the block's width or its neighbours: sim's
// TestEnsembleBitIdentical holds every lane, at widths 1, 4 and 16, to
// golden trajectories recorded from the scalar engine this package
// replaced. Lanes whose runs end early (exhausted networks, horizon reached
// after few events) retire independently without stalling the block; the
// pass loop compacts them away, and kernel.Stats lane-occupancy counters
// record how much of the block's width did useful work.
//
// A run with events or watchers carries per-run state, so it is a one-lane
// block with Config.Hooks set. The firing loop has one rare path, taken
// when a lane's firing count reaches its next stop: the drift guard, every
// 65,536 firings, and for a lane whose hooks include a per-firing hook
// (FiringHooks, the sim layer's events) every firing. The emitter calls the
// per-sample hook. An unhooked block, every laned sweep and every run that
// is only observed included, pays nothing for the hooks, and a run with
// watchers but no events pays only per trace row.
//
// The package is deliberately free of sim-layer policy: sim.Run and
// sim.RunMany decide which runs may share a block, compile and bind the
// kernel, derive seeds, and implement the hooks.
package ensemble

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// Reaction-selection modes: SelAuto picks the Fenwick index at
// fenwickMinReactions and the linear scan below it, and the forced modes
// exist for the selector-equivalence tests.
const (
	SelAuto = iota
	SelFenwick
	SelLinear
)

// fenwickMinReactions is the network size at which the O(log R) Fenwick
// descent overtakes the cache-friendly O(R) accumulation scan. Below it the
// scan's ~R/2 adds are cheaper than log R dependent-chasing loads; the
// crossover was measured with kernel's BenchmarkTreeSelect and
// BenchmarkTreeSelectLinear.
const fenwickMinReactions = 64

// passQuantum is how many firings a lane advances per macro pass. Large
// enough that pass scheduling is noise, small enough that lanes stay
// roughly synchronized in simulated time (shared species rows stay hot) and
// context cancellation is felt quickly.
const passQuantum = 2048

// driftGuardEvery is how often (in firings, per lane) the running
// propensity total and the Fenwick index are recomputed exactly from the
// molecule counts. Incremental updates accumulate float deltas, so without
// the guard a very long run would slowly drift from the exact sums.
const driftGuardEvery = 65536

// ErrMaxFirings reports that a lane used up Config.MaxFirings before
// reaching TEnd. Its trajectory is incomplete, so the lane returns neither
// a trace nor final concentrations.
var ErrMaxFirings = errors.New("sim: ssa firing budget exhausted")

// Hooks are one run's per-sample callbacks: the sim layer's watchers. They
// carry per-run state, so a hooked block is one lane wide, and it runs in
// trace mode.
type Hooks interface {
	// Sampled runs after every trace row with the sample time and the row.
	Sampled(t float64, conc []float64)
}

// FiringHooks are Hooks that also run after every firing: the sim layer's
// injection events. Only these make the firing loop stop after every
// firing.
type FiringHooks interface {
	Hooks
	// Fired runs after every firing with its time, its reaction and the
	// lane's molecule counts. It returns true when it rewrote the counts
	// (an event injection); every propensity is then recomputed exactly.
	Fired(t float64, rx int, counts []float64) bool
}

// Config describes one SoA block: a bound kernel shared by every lane, the
// common run parameters, and one seed per lane. All lanes share TEnd,
// SampleEvery, Unit and MaxFirings — runs that differ in any of these
// cannot share a block (sim.RunMany groups accordingly).
type Config struct {
	K           *kernel.Compiled
	Names       []string  // species display names (trace headers)
	Init        []float64 // initial concentrations, len NumSpecies
	Unit        float64   // molecules per concentration unit (Ω)
	TEnd        float64
	SampleEvery float64
	MaxFirings  int     // per-lane firing cap
	Seeds       []int64 // one RNG stream seed per lane; len = block width
	// FinalsOnly skips trajectory materialization: no per-lane traces are
	// allocated and no sample rows are emitted, only final states are
	// returned. The firing sequence is unchanged (sampling never touches
	// counts or the RNG), so finals match trace-mode runs exactly. This is
	// the sweep fast path: workloads that only read final concentrations
	// skip the dominant per-run trace and sampling cost.
	FinalsOnly bool
	Sel        int           // selection mode (Sel*)
	Stats      *kernel.Stats // hot-path counters; may be nil
	Hooks      Hooks         // per-run callbacks, FiringHooks also per firing; needs one lane, trace mode
}

// Result holds one block's outcomes, indexed by lane.
type Result struct {
	Traces  []*trace.Trace // nil in finals-only mode
	Finals  [][]float64    // final concentrations; nil for lanes with an error
	Firings []int          // reaction firings executed per lane
	Times   []float64      // simulated time of each lane's last firing
	Errs    []error        // per-lane errors (interruption, ErrMaxFirings)
}

// lane is the per-run slice of the block state that is not lane-strided:
// the RNG stream, simulated-time cursors and the selection index.
type lane struct {
	rng        kernel.RNG
	total      float64 // running propensity sum, drift-guarded
	t          float64
	nextSample float64
	fired      int
	nextGuard  int          // fired value of the next scheduled exact recompute
	nextStop   int          // fired value at which the loop next takes its rare path
	fen        *kernel.Tree // nil in linear-scan mode
	tr         *trace.Trace // nil in finals-only mode
	err        error
}

// block is the executing SoA state.
type block struct {
	cfg     Config
	k       *kernel.Compiled
	kscaled []float64
	width   int       // number of lanes L
	counts  []float64 // species-major: counts[sp*L+lane]
	props   []float64 // reaction-major: props[rx*L+lane]
	lanes   []lane
	conc    []float64 // shared emission scratch, len NumSpecies
	stats   *kernel.Stats
	fired   FiringHooks // Config.Hooks if it has a per-firing hook
}

// Run executes the block to completion (or cancellation) and returns the
// per-lane results. On context cancellation the already-retired lanes keep
// their results, the still-active lanes get wrapped ctx errors, and the
// ctx error is also returned.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, err := newBlock(cfg)
	if err != nil {
		return nil, err
	}
	if b.stats != nil {
		b.stats.EnsembleBlocks++
	}

	active := make([]int, b.width)
	for i := range active {
		active[i] = i
	}
	var ctxErr error
	for len(active) > 0 {
		if err := ctx.Err(); err != nil {
			for _, ln := range active {
				l := &b.lanes[ln]
				l.err = fmt.Errorf("sim: ssa interrupted at t=%g of %g (%d firings): %w",
					l.t, cfg.TEnd, l.fired, err)
			}
			ctxErr = err
			break
		}
		if b.stats != nil {
			b.stats.EnsemblePasses++
			b.stats.LaneSteps += uint64(len(active))
			b.stats.LaneSlots += uint64(b.width)
		}
		w := 0
		for _, ln := range active {
			if b.advance(ln, passQuantum) {
				active[w] = ln
				w++
			}
		}
		active = active[:w]
	}

	res := &Result{
		Finals:  make([][]float64, b.width),
		Firings: make([]int, b.width),
		Times:   make([]float64, b.width),
		Errs:    make([]error, b.width),
	}
	if !cfg.FinalsOnly {
		res.Traces = make([]*trace.Trace, b.width)
	}
	for i := range b.lanes {
		l := &b.lanes[i]
		res.Firings[i] = l.fired
		res.Times[i] = l.t
		res.Errs[i] = l.err
		if l.err != nil {
			continue
		}
		f := make([]float64, b.k.NumSpecies)
		for sp := range f {
			f[sp] = b.counts[sp*b.width+i] / cfg.Unit
		}
		res.Finals[i] = f
		if !cfg.FinalsOnly {
			res.Traces[i] = l.tr
		}
	}
	return res, ctxErr
}

// newBlock lays out the SoA state and initializes every lane: counts
// rounded from concentrations, one exact propensity recompute, the t=0
// trace row.
func newBlock(cfg Config) (*block, error) {
	k := cfg.K
	if k == nil {
		return nil, fmt.Errorf("ensemble: nil kernel")
	}
	L := len(cfg.Seeds)
	if L == 0 {
		return nil, fmt.Errorf("ensemble: no lanes (empty seed list)")
	}
	if len(cfg.Init) != k.NumSpecies {
		return nil, fmt.Errorf("ensemble: init vector has %d species, kernel has %d", len(cfg.Init), k.NumSpecies)
	}
	if cfg.Unit <= 0 || cfg.TEnd <= 0 || cfg.SampleEvery <= 0 || cfg.MaxFirings <= 0 {
		return nil, fmt.Errorf("ensemble: Unit, TEnd, SampleEvery and MaxFirings must be positive")
	}
	if cfg.Hooks != nil && (L != 1 || cfg.FinalsOnly) {
		return nil, fmt.Errorf("ensemble: hooks need a one-lane block in trace mode")
	}
	b := &block{
		cfg:     cfg,
		k:       k,
		kscaled: k.StochRates(cfg.Unit),
		width:   L,
		counts:  make([]float64, k.NumSpecies*L),
		props:   make([]float64, k.NumReactions*L),
		lanes:   make([]lane, L),
		conc:    make([]float64, k.NumSpecies),
		stats:   cfg.Stats,
	}
	b.fired, _ = cfg.Hooks.(FiringHooks)
	useFen := cfg.Sel == SelFenwick || (cfg.Sel == SelAuto && k.NumReactions >= fenwickMinReactions)
	for i := range b.lanes {
		l := &b.lanes[i]
		l.rng.Seed(cfg.Seeds[i])
		l.nextSample = cfg.SampleEvery
		l.nextGuard = driftGuardEvery - 1
		l.nextStop = l.nextGuard
		if b.fired != nil {
			l.nextStop = 1
		}
		for sp, c := range cfg.Init {
			b.counts[sp*L+i] = math.Round(c * cfg.Unit)
		}
		if useFen {
			l.fen = kernel.NewTree(k.NumReactions)
		}
		b.recomputeLane(i)
		if !cfg.FinalsOnly {
			l.tr = trace.New(cfg.Names)
			l.tr.Grow(int(cfg.TEnd/cfg.SampleEvery) + 2)
			b.syncConc(i)
			if err := l.tr.Append(0, b.conc); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// recomputeLane refreshes every propensity of one lane from its counts and
// the exact total: the drift guard, also run after an event rewrote the
// counts and whenever the running total goes negative.
func (b *block) recomputeLane(ln int) {
	if b.stats != nil {
		b.stats.ExactRecomputes++
	}
	l := &b.lanes[ln]
	L := b.width
	total := 0.0
	for i := 0; i < b.k.NumReactions; i++ {
		p := b.k.PropensityStrided(i, b.kscaled, b.counts, L, ln)
		b.props[i*L+ln] = p
		total += p
	}
	l.total = total
	if l.fen != nil {
		l.fen.RebuildStrided(b.props, L, ln)
	}
}

// syncConc fills the shared scratch with one lane's concentration view.
func (b *block) syncConc(ln int) {
	L, unit, counts, conc := b.width, b.cfg.Unit, b.counts, b.conc
	for sp := range conc {
		conc[sp] = counts[sp*L+ln] / unit
	}
}

// advance runs one lane for up to quantum firings: waiting-time draw,
// sample emission, horizon and budget checks, fire, and the rare path
// (stop) when the firing count reaches the lane's next stop. It allocates
// nothing (TestEnsembleAdvanceAllocs). Returns false once the lane
// retires.
//
// The per-firing state (clock, firing count, running total) lives in locals
// for the whole quantum and is stored back to the lane at every exit, so
// the loop body touches the lane struct only on the rare paths (stops,
// sampling, retirement); selection counters are batched per call. None of
// this reorders a float operation or an RNG draw, and hooks only read the
// state unless an event rewrites the counts, so a hooked run fires exactly
// as the same run unhooked.
func (b *block) advance(ln int, quantum int) bool {
	l := &b.lanes[ln]
	k := b.k
	L := b.width
	kscaled, counts, props := b.kscaled, b.counts, b.props
	fen := l.fen
	rng := &l.rng
	tEnd := b.cfg.TEnd
	maxFirings := b.cfg.MaxFirings
	total := l.total
	t := l.t
	fired := l.fired
	start := fired

	for q := 0; q < quantum; q++ {
		dt := math.Inf(1)
		if total > 0 {
			dt = rng.ExpFloat64() / total
		}
		if l.tr != nil && l.nextSample <= tEnd && t+dt >= l.nextSample {
			l.t, l.total = t, total
			if err := b.emitSamples(ln, dt); err != nil {
				l.err = err
				l.fired = fired
				b.tallySelects(l, fired-start)
				return b.finish(ln)
			}
		}
		if t+dt >= tEnd || math.IsInf(dt, 1) {
			l.total, l.t, l.fired = total, t, fired
			b.tallySelects(l, fired-start)
			return b.finish(ln)
		}
		if fired >= maxFirings {
			l.err = fmt.Errorf("%w at t=%g of %g (%d firings)", ErrMaxFirings, t, tEnd, fired)
			l.total, l.t, l.fired = total, t, fired
			b.tallySelects(l, fired-start)
			return b.finish(ln)
		}
		t += dt

		// Fire: inverse-CDF selection, the stoichiometry delta, and the
		// dependent-propensity refresh streaming the chosen reaction's
		// update program (dependent index, rate-law form and operands
		// packed per record, see kernel.UpdRecord). Dependents whose
		// propensity is unchanged (typically gated reactions outside their
		// phase, zero before and after) cost one comparison.
		u := rng.Float64() * total
		var chosen int
		if fen != nil {
			chosen = fen.Select(u)
		} else {
			chosen = selectLinear(props, L, ln, u)
		}
		k.ApplyDeltaStrided(chosen, counts, L, ln)
		for _, up := range k.Updates(chosen) {
			di := int(up.Dep)
			var newp float64
			switch up.Form {
			case kernel.FormConst:
				newp = kscaled[di]
			case kernel.FormUni:
				newp = kscaled[di] * counts[int(up.Op1)*L+ln]
			case kernel.FormBi:
				newp = kscaled[di] * counts[int(up.Op1)*L+ln] * counts[int(up.Op2)*L+ln]
			case kernel.FormDimer:
				nn := counts[int(up.Op1)*L+ln]
				newp = kscaled[di] * nn * (nn - 1)
			default:
				newp = k.PropensityStrided(di, kscaled, counts, L, ln)
			}
			at := di*L + ln
			old := props[at]
			if newp == old {
				continue
			}
			props[at] = newp
			d := newp - old
			total += d
			if fen != nil {
				// Delta-only update: props is the leaf source of truth and
				// the drift guard rebuilds the mirror, so the tree skips it.
				fen.AddDelta(di, d)
			}
		}
		if total < 0 {
			// Accumulated float drift went negative: resync exactly.
			l.total = total
			b.recomputeLane(ln)
			total = l.total
		}
		fired++
		if fired == l.nextStop {
			total = b.stop(ln, fired, t, total, chosen)
		}
	}
	l.total, l.t, l.fired = total, t, fired
	b.tallySelects(l, fired-start)
	return true
}

// stop is the firing loop's rare path, taken after the firing that brings
// the lane's count to nextStop, with that firing's time and reaction: the
// per-firing hook (an event that rewrote the counts forces an exact
// recompute), then the drift guard when it is due. It returns the running
// total and schedules the next stop: the next firing for a lane with a
// per-firing hook, the next drift guard otherwise.
func (b *block) stop(ln, fired int, t, total float64, rx int) float64 {
	l := &b.lanes[ln]
	if b.fired != nil && b.fired.Fired(t, rx, b.counts) {
		b.recomputeLane(ln)
		total = l.total
	}
	if fired == l.nextGuard {
		l.nextGuard += driftGuardEvery
		b.recomputeLane(ln)
		total = l.total
	}
	l.nextStop = l.nextGuard
	if b.fired != nil {
		l.nextStop = fired + 1
	}
	return total
}

// tallySelects batches the per-selection counters for n firings of one lane
// (every firing performs exactly one selection).
func (b *block) tallySelects(l *lane, n int) {
	if b.stats == nil || n <= 0 {
		return
	}
	if l.fen != nil {
		b.stats.FenwickSelects += uint64(n)
	} else {
		b.stats.LinearSelects += uint64(n)
	}
}

// emitSamples records every sample boundary the waiting interval [t, t+dt)
// crosses, handing each row to the per-sample hook of a hooked block.
func (b *block) emitSamples(ln int, dt float64) error {
	l := &b.lanes[ln]
	for l.nextSample <= b.cfg.TEnd && l.t+dt >= l.nextSample {
		b.syncConc(ln)
		if err := l.tr.Append(l.nextSample, b.conc); err != nil {
			return err
		}
		if b.cfg.Hooks != nil {
			b.cfg.Hooks.Sampled(l.nextSample, b.conc)
		}
		l.nextSample += b.cfg.SampleEvery
	}
	return nil
}

// finish retires a lane: the trailing horizon row (trace mode, unless the
// lane failed). Always returns false for use as advance's tail call.
func (b *block) finish(ln int) bool {
	l := &b.lanes[ln]
	if l.tr != nil && l.err == nil && l.tr.End() < b.cfg.TEnd {
		b.syncConc(ln)
		if err := l.tr.Append(b.cfg.TEnd, b.conc); err != nil {
			l.err = err
		}
	}
	return false
}

// selectLinear is the O(R) accumulation scan over lane ln's column of a
// reaction-major propensity matrix of L lanes; u at or past the accumulated
// total (float roundoff at the right edge) falls back to the last reaction.
// A one-lane block's column is the whole props slice, scanned contiguously.
func selectLinear(props []float64, L, ln int, u float64) int {
	acc := 0.0
	if L == 1 {
		for i, p := range props {
			acc += p
			if u < acc {
				return i
			}
		}
		return len(props) - 1
	}
	n := len(props) / L
	for i := 0; i < n; i++ {
		acc += props[i*L+ln]
		if u < acc {
			return i
		}
	}
	return n - 1
}
