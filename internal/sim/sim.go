// Package sim simulates chemical reaction networks under mass-action
// kinetics: deterministically (ODE integration, the validation method of the
// DAC 2011 paper) and stochastically (Gillespie's direct method, used to
// probe the small-count validity envelope of the deterministic results).
//
// Rate categories are bound to concrete constants here and only here: the
// constructs themselves (packages phases, clock, core, async, modules) carry
// only the fast/slow dichotomy.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/ode"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// Rates assigns concrete rate constants to the two categories. The paper's
// claim — and experiment E6's subject — is that results do not depend on the
// specific values as long as Fast >> Slow.
type Rates struct {
	Fast float64
	Slow float64
}

// DefaultRates returns the assignment used throughout the tests:
// fast/slow = 100. The companion abstract's simulations use 1000.
func DefaultRates() Rates { return Rates{Fast: 100, Slow: 1} }

// Of returns the concrete rate constant of a reaction: the category base
// times the reaction's multiplier.
func (r Rates) Of(rx crn.Reaction) float64 {
	base := r.Slow
	if rx.Cat == crn.Fast {
		base = r.Fast
	}
	return base * rx.Mult
}

// Validate rejects non-finite, non-positive or inverted assignments.
// Fast == Slow is the degenerate boundary of the paper's dichotomy; it is
// accepted (robustness experiments sweep the ratio down to 1) but anything
// below it is not.
func (r Rates) Validate() error {
	if math.IsNaN(r.Fast) || math.IsNaN(r.Slow) || math.IsInf(r.Fast, 0) || math.IsInf(r.Slow, 0) {
		return fmt.Errorf("sim: rates must be finite, got fast=%g slow=%g", r.Fast, r.Slow)
	}
	if r.Fast <= 0 || r.Slow <= 0 {
		return fmt.Errorf("sim: rates must be positive, got fast=%g slow=%g", r.Fast, r.Slow)
	}
	if r.Fast < r.Slow {
		return fmt.Errorf("sim: fast rate %g below slow rate %g", r.Fast, r.Slow)
	}
	return nil
}

// Deriv returns the mass-action derivative function of the network under the
// given rate assignment. The rate of a reaction with reactant coefficients
// c_i is k * Π [S_i]^c_i, and one "firing" moves the full stoichiometry, so
// e.g. 2X -> Y contributes -2·k[X]² to d[X]/dt.
//
// The RHS is evaluated by the same compiled kernel the SSA uses (CSR
// stoichiometry, integer powers by repeated multiplication — no math.Pow),
// and one evaluation allocates nothing.
func Deriv(n *crn.Network, rates Rates) ode.Func {
	k := kernel.Compile(n, rates.Of)
	return func(_ float64, y, dydt []float64) {
		k.Deriv(y, dydt)
	}
}

// State is the mutable simulation state handed to event callbacks. All
// access is by species name; concentrations are clamped non-negative.
type State struct {
	net *crn.Network
	y   []float64
}

// Get returns the current concentration of the named species (0 if the
// species does not exist).
func (s *State) Get(name string) float64 {
	if i, ok := s.net.SpeciesIndex(name); ok {
		return s.y[i]
	}
	return 0
}

// Add adds delta (which may be negative) to the named species, clamping the
// result at zero. Unknown names panic: events reference construction-time
// species, so a miss is a programming error.
func (s *State) Add(name string, delta float64) {
	i := s.net.MustIndex(name)
	s.y[i] += delta
	if s.y[i] < 0 {
		s.y[i] = 0
	}
}

// Set assigns the named species' concentration, clamped at zero.
func (s *State) Set(name string, v float64) {
	i := s.net.MustIndex(name)
	if v < 0 {
		v = 0
	}
	s.y[i] = v
}

// Event is a Schmitt-triggered state-change hook: when the probe species
// rises through High (having previously been below Low), Fire is called once;
// the event re-arms when the probe falls back below Low. This is how
// streaming inputs (the paper's per-cycle filter samples) are injected — the
// probe is typically a clock-phase species.
type Event struct {
	Probe string  // watched species
	High  float64 // fire threshold
	Low   float64 // re-arm threshold, must be < High
	Fire  func(t float64, s *State)

	armed    bool
	resolved int
}

func (e *Event) prepare(n *crn.Network, y []float64) error {
	if e.Low >= e.High {
		return fmt.Errorf("sim: event on %q: Low (%g) must be < High (%g)", e.Probe, e.Low, e.High)
	}
	i, ok := n.SpeciesIndex(e.Probe)
	if !ok {
		return fmt.Errorf("sim: event probes unknown species %q", e.Probe)
	}
	e.resolved = i
	e.armed = y[i] < e.Low
	return nil
}

// step updates the trigger state machine and returns true if the event fired.
func (e *Event) step(t float64, st *State) bool {
	v := st.y[e.resolved]
	if e.armed && v >= e.High {
		e.armed = false
		if e.Fire != nil {
			e.Fire(t, st)
		}
		return true
	}
	if !e.armed && v < e.Low {
		e.armed = true
	}
	return false
}

// Config is the unified configuration of a simulation Run: the Method field
// selects the algorithm, the common fields apply to every method and the
// method-specific fields are ignored by the others. Its zero-value Method is
// ODE, so pre-redesign deterministic Config literals keep working unchanged.
type Config struct {
	Method      Method  // simulation algorithm; zero value -> ODE
	Rates       Rates   // rate assignment; zero value -> DefaultRates
	TEnd        float64 // simulation horizon, required
	SampleEvery float64 // recording interval; 0 -> TEnd/1000

	// ODE configures the integrator (Method == ODE only); zero values
	// select the documented defaults.
	ODE ode.Options
	// Solver selects the ODE integration strategy (Method == ODE only).
	// The zero value, SolverAuto, starts with the explicit Dormand–Prince
	// 5(4) method and hands off to the stiff Rosenbrock-W integrator once
	// the explicit step sits at its stability edge and the stiff method is
	// predicted cheaper (see SolverAuto).
	Solver Solver

	// Unit is the system size Ω in molecules per concentration unit;
	// required by SSA, ignored by ODE.
	Unit float64
	// Seed feeds the SSA's RNG (deterministic for a given seed). The batch
	// engine derives a per-job seed when this is zero.
	Seed int64
	// MaxFirings caps SSA reaction firings; 0 -> 50 million. A run that
	// would need more to reach TEnd fails with an error wrapping
	// ErrMaxFirings instead of returning a truncated trajectory.
	MaxFirings int

	Events []*Event // optional injection events
	// Obs receives the run's start and end (SimEnd carries the step,
	// kernel and solver counters) and the watchers' semantic events. It
	// never sees individual steps or firings, so observing a run does not
	// change how it executes.
	Obs obs.Observer
	// Watchers derive semantic events (clock edges, phase changes, duty
	// cycles) from the state at every accepted step or recording sample;
	// their events go to Obs. Watchers carry per-run state, so an SSA run
	// with watchers is a hooked one-lane block.
	Watchers []obs.Watcher

	// Kernel, when non-nil, additionally receives the run's kernel
	// hot-path counters (selector choices, exact recomputes, loop-variant
	// entries, lane occupancy) — reusing one sink across runs
	// accumulates a sweep total. Each run's own counters travel on
	// obs.SimEnd.Kernel.
	Kernel *kernel.Stats

	// compiled, when non-nil, is a pre-bound kernel for this network and
	// rate assignment; the backends use it instead of compiling their own.
	// Set only by RunMany, which compiles the network structure once and
	// binds it per rate point, so a 100-run sweep walks the dependency
	// graph once. Unexported: correctness requires it to match (net,
	// Rates) exactly, which RunMany guarantees and arbitrary callers
	// cannot.
	compiled *kernel.Compiled
}

// MaxTraceCells bounds the trace a run records: its sample rows (TEnd over
// SampleEvery, plus the rows at t = 0 and at the horizon) times its
// species. The simulators size the trace from that count before their first
// step, so without a bound a tiny SampleEvery asks for an impossible or
// many-gigabyte allocation. Validate bounds the rows alone and Run the
// product. 1<<24 cells hold 128 MiB of samples; the default 1000-row grid
// stays below it for networks of up to 16,000 species.
const MaxTraceCells = 1 << 24

// FieldError reports one invalid Config field: the Go field name (dotted
// for nested fields, e.g. "Rates.Fast") and what is wrong with it.
type FieldError struct {
	Field string
	Msg   string
}

func (e FieldError) Error() string { return e.Field + ": " + e.Msg }

// ConfigError aggregates every invalid field found by Config.Validate, so
// callers surfacing configuration mistakes (the HTTP server's error
// envelope, crnsim's flag diagnostics) can report all of them at once
// instead of one per round trip. Unwrap it with errors.As.
type ConfigError struct {
	Fields []FieldError
}

func (e *ConfigError) Error() string {
	msg := "sim: invalid config"
	sep := ": "
	for _, f := range e.Fields {
		msg += sep + f.Error()
		sep = "; "
	}
	return msg
}

// Validate checks the configuration without running it, reporting every
// invalid field in a *ConfigError. Zero values that select documented
// defaults (SampleEvery, MaxFirings, the zero Rates, the zero Method) are
// valid; explicit garbage — non-finite horizons, negative caps, inverted
// rates — is not. Run and RunMany validate internally; the method exists so
// config-assembling front ends (the HTTP server, crnsim) can share one
// check instead of duplicating limit logic.
func (c Config) Validate() error {
	var fields []FieldError
	add := func(field, format string, args ...any) {
		fields = append(fields, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	switch c.Method {
	case ODE, SSA:
	default:
		add("Method", "unknown method %d (valid methods: %v)", c.Method, MethodNames())
	}
	if c.Rates != (Rates{}) {
		if err := c.Rates.Validate(); err != nil {
			add("Rates", "%v", err)
		}
	}
	if !(c.TEnd > 0) || math.IsInf(c.TEnd, 0) { // rejects NaN too
		add("TEnd", "must be positive and finite, got %g", c.TEnd)
	}
	if c.SampleEvery < 0 || math.IsNaN(c.SampleEvery) || math.IsInf(c.SampleEvery, 0) {
		add("SampleEvery", "must be non-negative and finite, got %g", c.SampleEvery)
	} else if c.SampleEvery > 0 && !math.IsInf(c.TEnd, 0) {
		if rows := c.traceRows(); rows > MaxTraceCells {
			add("SampleEvery", "TEnd/SampleEvery asks for %.4g trace rows, limit is %d", rows, MaxTraceCells)
		}
	}
	switch c.Solver {
	case SolverAuto, SolverExplicit, SolverStiff:
	default:
		add("Solver", "unknown solver %d (valid solvers: %v)", c.Solver, SolverNames())
	}
	if c.Solver != SolverAuto && c.Method != ODE {
		add("Solver", "solver %q is only meaningful for method ode, not %q", c.Solver, c.Method)
	}
	// Tolerances: zero selects the documented default, explicit garbage is
	// rejected here rather than silently remapped to the default inside the
	// integrator.
	if c.ODE.RelTol < 0 || math.IsNaN(c.ODE.RelTol) || math.IsInf(c.ODE.RelTol, 0) {
		add("ODE.RelTol", "must be positive and finite (0 selects the default), got %g", c.ODE.RelTol)
	}
	if c.ODE.AbsTol < 0 || math.IsNaN(c.ODE.AbsTol) || math.IsInf(c.ODE.AbsTol, 0) {
		add("ODE.AbsTol", "must be positive and finite (0 selects the default), got %g", c.ODE.AbsTol)
	}
	if c.ODE.MinStep > 0 && c.ODE.MaxStep > 0 && c.ODE.MinStep > c.ODE.MaxStep {
		add("ODE.MinStep", "must not exceed ODE.MaxStep, got %g > %g", c.ODE.MinStep, c.ODE.MaxStep)
	}
	if c.Method == SSA {
		if !(c.Unit > 0) || math.IsInf(c.Unit, 0) {
			add("Unit", "molecules per concentration unit must be positive and finite, got %g", c.Unit)
		}
	}
	if c.MaxFirings < 0 {
		add("MaxFirings", "must be non-negative, got %d", c.MaxFirings)
	}
	if len(fields) == 0 {
		return nil
	}
	return &ConfigError{Fields: fields}
}

// traceRows is the number of rows a run sizes its trace for.
func (c Config) traceRows() float64 { return c.TEnd/c.SampleEvery + 2 }

// checkTrace bounds the normalized config's trace on network n by
// MaxTraceCells.
func (c Config) checkTrace(n *crn.Network) error {
	rows, species := c.traceRows(), n.NumSpecies()
	if rows*float64(species) <= MaxTraceCells {
		return nil
	}
	return &ConfigError{Fields: []FieldError{{Field: "SampleEvery", Msg: fmt.Sprintf(
		"%.4g trace rows of %d species exceed the %d-cell limit", rows, species, MaxTraceCells)}}}
}

func (c Config) normalize() (Config, error) {
	if c.Rates == (Rates{}) {
		c.Rates = DefaultRates()
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = c.TEnd / 1000
	}
	switch c.Method {
	case ODE:
		if c.ODE.MaxStep <= 0 {
			// Never step across a whole sample interval: events and
			// sampling are checked at accepted steps.
			c.ODE.MaxStep = c.SampleEvery
		}
		c.ODE.NonNegative = true
	case SSA:
		if c.MaxFirings == 0 {
			c.MaxFirings = 50_000_000
		}
	}
	return c, nil
}

// Run simulates the network with the algorithm named by cfg.Method and
// returns the sampled trace (all species, reported as concentrations for
// every method, so traces are directly comparable across methods).
//
// Run honours ctx: cancellation or deadline expiry interrupts the step loop
// (the ODE integrator polls every 256 steps, the SSA every 2048 firings)
// and the returned error wraps ctx.Err() together with the simulated time
// reached. A nil ctx behaves like context.Background().
//
// When ctx carries a span (span.FromContext), Run opens a child span named
// "sim.<method>" covering the whole run, attributed with the network size
// and horizon; the closing step/firing totals and any clock edges, phase
// changes and health alerts the watchers derive are recorded on it through
// an obs.SpanObserver, so an exported trace shows per-run sim timing without
// any configuration beyond tracing the caller.
func Run(ctx context.Context, n *crn.Network, cfg Config) (*trace.Trace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.checkTrace(n); err != nil {
		return nil, err
	}
	if parent := span.FromContext(ctx); parent != nil {
		sp := parent.Child("sim." + cfg.Method.String())
		sp.SetAttr("sim.method", cfg.Method.String())
		sp.SetAttr("sim.t_end", cfg.TEnd)
		sp.SetAttr("sim.species", n.NumSpecies())
		sp.SetAttr("sim.reactions", n.NumReactions())
		if cfg.Method != ODE {
			sp.SetAttr("sim.seed", cfg.Seed)
		}
		cfg.Obs = obs.Multi(cfg.Obs, &obs.SpanObserver{S: sp})
		tr, err := runMethod(ctx, n, cfg)
		sp.SetError(err)
		sp.End()
		return tr, err
	}
	return runMethod(ctx, n, cfg)
}

// runMethod dispatches the normalized config to its backend.
func runMethod(ctx context.Context, n *crn.Network, cfg Config) (*trace.Trace, error) {
	if cfg.Method == SSA {
		return runSSA(ctx, n, cfg)
	}
	return runODE(ctx, n, cfg)
}

// reactionNames returns display names for every reaction: the registered
// name where present, the rendered reaction text otherwise. Used to label
// instrumentation events and metrics.
func reactionNames(n *crn.Network) []string {
	names := make([]string, n.NumReactions())
	for i := range names {
		if name := n.Reaction(i).Name; name != "" {
			names[i] = name
		} else {
			names[i] = n.FormatReaction(i)
		}
	}
	return names
}

// startRun binds watchers and emits the SimStart event. It returns the
// watcher event sink (never nil when watchers exist) and the run's start
// time for wall-clock accounting.
func startRun(n *crn.Network, sim string, tEnd float64, o obs.Observer, watchers []obs.Watcher) (sink obs.Observer, start time.Time, err error) {
	if err := obs.BindAll(watchers, n.SpeciesNames()); err != nil {
		return nil, time.Time{}, err
	}
	sink = o
	if sink == nil {
		sink = obs.Nop
	}
	if o != nil {
		o.OnSimStart(obs.SimStart{Sim: sim, T0: 0, T1: tEnd,
			Species: n.SpeciesNames(), Reactions: reactionNames(n)})
	}
	return sink, time.Now(), nil
}

// endRun flushes watchers at e.T and emits the SimEnd event e — which
// carries the backend's counters — completed with the run's wall-clock
// duration and error.
func endRun(e obs.SimEnd, o obs.Observer, sink obs.Observer, watchers []obs.Watcher,
	start time.Time, runErr error) {
	obs.FinishAll(watchers, e.T, sink)
	if o == nil {
		return
	}
	e.WallSeconds = time.Since(start).Seconds()
	if runErr != nil {
		e.Err = runErr.Error()
	}
	o.OnSimEnd(e)
}

// kernelStats converts the kernel package's counter struct into the obs
// mirror (obs stays free of sim-layer imports).
func kernelStats(ks kernel.Stats) obs.KernelStats {
	return obs.KernelStats{
		FenwickSelects:  ks.FenwickSelects,
		LinearSelects:   ks.LinearSelects,
		ExactRecomputes: ks.ExactRecomputes,
		TightLoops:      ks.TightLoops,
		FullLoops:       ks.FullLoops,
		EnsembleBlocks:  ks.EnsembleBlocks,
		EnsemblePasses:  ks.EnsemblePasses,
		LaneSteps:       ks.LaneSteps,
		LaneSlots:       ks.LaneSlots,
	}
}

// kernelJac adapts the compiled kernel's analytic sparse Jacobian to the
// ode.Jacobian interface (the ode package stays chemistry-free; time is
// ignored because mass-action kinetics is autonomous).
type kernelJac struct {
	k *kernel.Compiled
	j *kernel.Jacobian
}

func newKernelJac(k *kernel.Compiled) kernelJac { return kernelJac{k: k, j: k.Jac()} }

func (a kernelJac) Dim() int                          { return a.j.Dim() }
func (a kernelJac) Pattern() (colPtr, rowIdx []int32) { return a.j.Pattern() }
func (a kernelJac) Fill(_ float64, y, nz []float64)   { a.j.Fill(a.k, y, nz) }

// runODE is the deterministic backend of Run; cfg has been normalized and
// the network validated. The Solver knob picks the integrator: explicit
// DP5(4), stiff Rosenbrock-W on the kernel's analytic sparse Jacobian, or —
// the default — explicit with handoff to stiff once the stiffness test
// predicts the stiff method cheaper (ode.ErrStiff) or the explicit step
// underflows.
func runODE(ctx context.Context, n *crn.Network, cfg Config) (*trace.Trace, error) {
	y := n.Init()
	st := &State{net: n, y: y}
	for _, e := range cfg.Events {
		if err := e.prepare(n, y); err != nil {
			return nil, err
		}
	}
	sink, startWall, err := startRun(n, "ode", cfg.TEnd, cfg.Obs, cfg.Watchers)
	if err != nil {
		return nil, err
	}
	tr := trace.New(n.SpeciesNames())
	tr.Grow(int(cfg.TEnd/cfg.SampleEvery) + 2)
	if err := tr.Append(0, y); err != nil {
		return nil, err
	}
	nextSample := cfg.SampleEvery
	stepFn := func(t float64, yy []float64) (bool, bool) {
		modified := false
		for _, e := range cfg.Events {
			if e.step(t, st) {
				modified = true
			}
		}
		obs.ObserveAll(cfg.Watchers, t, yy, sink)
		if t >= nextSample {
			// The integrator caps steps at SampleEvery, so at most a few
			// samples are skipped under rounding; emit one row per step
			// past the boundary to keep rows strictly increasing.
			if err := tr.Append(t, yy); err == nil {
				for t >= nextSample {
					nextSample += cfg.SampleEvery
				}
			}
		}
		return modified, false
	}
	k := cfg.compiled
	if k == nil {
		k = kernel.Compile(n, cfg.Rates.Of)
	}
	deriv := func(_ float64, yy, dydt []float64) { k.Deriv(yy, dydt) }

	odeStats := obs.ODEStats{Solver: cfg.Solver.String()}
	var stats ode.Stats
	switch cfg.Solver {
	case SolverExplicit:
		stats, err = ode.Integrate(ctx, deriv, y, 0, cfg.TEnd, cfg.ODE, stepFn)
	case SolverStiff:
		stats, err = ode.IntegrateStiff(ctx, deriv, newKernelJac(k), y, 0, cfg.TEnd, cfg.ODE, stepFn)
		odeStats.StiffSteps = stats.Accepted
	default: // SolverAuto
		opts := cfg.ODE
		opts.StiffDetect = true
		stats, err = ode.Integrate(ctx, deriv, y, 0, cfg.TEnd, opts, stepFn)
		odeStats.HRho, odeStats.WorkRatio = stats.HRho, stats.WorkRatio
		if err != nil && (errors.Is(err, ode.ErrStiff) || errors.Is(err, ode.ErrMinStep)) {
			// The explicit method left y at the integration front and
			// Stats.T at the time reached: resume from there with the
			// stiff integrator. The step callback's sampling and event
			// state carry over untouched.
			odeStats.Switched = true
			odeStats.SwitchT = stats.T
			var rest ode.Stats
			rest, err = ode.IntegrateStiff(ctx, deriv, newKernelJac(k), y, stats.T, cfg.TEnd, cfg.ODE, stepFn)
			odeStats.StiffSteps = rest.Accepted
			stats.Add(rest)
		}
	}
	odeStats.JacEvals = stats.JacEvals
	odeStats.Factorizations = stats.Factorizations
	odeStats.Solves = stats.Solves
	odeStats.Rejected = stats.Rejected
	odeStats.Evals = stats.Evals
	end := obs.SimEnd{Sim: "ode", T: tr.End(), Steps: stats.Accepted, ODE: odeStats}
	if err != nil {
		endRun(end, cfg.Obs, sink, cfg.Watchers, startWall, err)
		return nil, err
	}
	if tr.End() < cfg.TEnd {
		if err := tr.Append(cfg.TEnd, y); err != nil {
			return nil, err
		}
	}
	end.T = cfg.TEnd
	endRun(end, cfg.Obs, sink, cfg.Watchers, startWall, nil)
	return tr, nil
}
