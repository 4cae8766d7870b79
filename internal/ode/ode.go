// Package ode provides ordinary-differential-equation integrators: an
// adaptive Dormand–Prince 5(4) method (the explicit workhorse for
// mass-action simulation in package sim) with a stiffness detector that
// says when to hand a run over, a Rosenbrock-W (ode23s) method on a sparse
// LU for stiff systems, and a fixed-step classical RK4 used for
// cross-checks. The package is generic — it knows nothing about chemistry.
package ode

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Func evaluates the derivative dy/dt at time t into dydt. Implementations
// must not retain y or dydt.
type Func func(t float64, y []float64, dydt []float64)

// Observer is called after every accepted step with the current time and
// state. The observer may modify y in place (e.g. to inject an input bolus);
// it must then return modified=true so the integrator refreshes its cached
// derivative. Returning stop=true ends integration early without error.
type Observer func(t float64, y []float64) (modified, stop bool)

// Options configures the adaptive integrator. Zero values select the
// documented defaults.
type Options struct {
	RelTol   float64 // relative tolerance, default 1e-6
	AbsTol   float64 // absolute tolerance, default 1e-9
	InitStep float64 // initial step size, default (t1-t0)/1e4
	MinStep  float64 // below this the integration fails, default (t1-t0)*1e-14
	MaxStep  float64 // cap on step size, default t1-t0
	MaxSteps int     // cap on accepted+rejected steps, default 50 million
	// NonNegative projects the state onto the non-negative orthant after
	// each accepted step. Mass-action kinetics is mathematically
	// non-negative, but roundoff can produce tiny negative excursions
	// that would feed back as negative rates; projection removes them.
	NonNegative bool
	// StiffDetect makes Integrate abandon the run with ErrStiff once its
	// stiffness test (see stiffEdge) finds the step held at DP5's
	// stability edge and predicts the stiff integrator cheaper for the
	// rest of the run. On that return y0 holds the state at the decision
	// point and Stats.T the time reached, so the caller can resume
	// seamlessly with the stiff integrator; Stats.HRho and
	// Stats.WorkRatio carry the evidence. Pure detection: when the test
	// never passes the integration is unchanged.
	StiffDetect bool
}

func (o Options) withDefaults(span float64) Options {
	if o.RelTol <= 0 {
		o.RelTol = 1e-6
	}
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-9
	}
	if o.InitStep <= 0 {
		o.InitStep = span / 1e4
	}
	if o.MaxStep <= 0 {
		o.MaxStep = span
	}
	if o.MinStep <= 0 {
		o.MinStep = span * 1e-14
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 50_000_000
	}
	return o
}

// ErrMinStep reports that the controller pushed the step size below MinStep,
// which usually means the problem is too stiff for an explicit method at the
// requested tolerance.
var ErrMinStep = errors.New("ode: step size underflow")

// ErrMaxSteps reports that MaxSteps was exhausted before reaching t1.
var ErrMaxSteps = errors.New("ode: step budget exhausted")

// ErrStiff reports that Options.StiffDetect found the explicit method held
// at its stability edge and predicted the stiff integrator to be cheaper
// for the rest of the run. It is a handoff signal, not a failure: y0 and
// Stats.T carry the integration front so a stiff method can take over, and
// Stats.HRho and Stats.WorkRatio the evidence for the decision.
var ErrStiff = errors.New("ode: stiffness detected")

// Stiffness test (Options.StiffDetect). Stages 6 and 7 of a DP5 step are
// both evaluated at t+h, so ρ = ‖k7 − k6‖ / ‖y₁ − Y6‖ estimates the
// dominant eigenvalue of the Jacobian at no extra evaluation (Hairer &
// Wanner, Solving ODEs II, §IV.2). DP5 is stable for h·ρ up to about 3.3;
// a step held there by stability rather than accuracy reads h·ρ of 2–3.6,
// a resolved fast transient mostly below 1. The run is at the edge once
// stiffEdgeSteps accepted steps read h·ρ > stiffEdge, with fewer than
// stiffCalm calm steps in a row between them (dopri5's counting). At the
// edge the explicit method pays 6 evaluations per step of mean size h̄ over
// that stretch. The stiff method is priced at stiffPrice evaluations per
// ĥ = min(stiffStep, MaxStep) of simulated time. stiffStep is the stiff
// step on smooth slow dynamics. Where MaxStep binds, clock edges hold the
// stiff step to 0.35–0.65 of the cap, and covering ĥ took the time of
// 13–24 evaluations on the paper's designs; stiffPrice sits above that.
// The handoff happens when the work ratio (6/h̄)/(stiffPrice/ĥ) exceeds 1.
//
// The constants are calibrated on the paper's designs (clock, 2- and
// 4-register rings, 2-bit counter, 4-tap moving average) at fast/slow
// ratios 100 to 3e4 over a horizon of 10 slow time units, and on the
// asynchronous delay chain over 150; the grid and the rule's margins are
// in DESIGN.md. stiffStep is in slow time units, so the test assumes the
// slow rates are of order 1, as sim.DefaultRates sets.
const (
	stiffEdge      = 2.0
	stiffEdgeSteps = 12
	stiffCalm      = 6
	stiffPrice     = 30
	stiffStep      = 0.025
)

// ctxCheckEvery is how often (in accepted-plus-rejected steps) Integrate
// polls its context. 256 keeps the poll off the per-step hot path while still
// bounding the cancellation latency to a fraction of a millisecond for the
// mass-action systems in this repository (a step costs seven derivative
// evaluations).
const ctxCheckEvery = 256

// Dormand–Prince 5(4) coefficients.
var (
	dpC = [7]float64{0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1, 1}
	dpA = [7][6]float64{
		{},
		{1.0 / 5},
		{3.0 / 40, 9.0 / 40},
		{44.0 / 45, -56.0 / 15, 32.0 / 9},
		{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
		{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
		{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
	}
	// dpE = b5 - b4: error estimator weights.
	dpE = [7]float64{
		35.0/384 - 5179.0/57600,
		0,
		500.0/1113 - 7571.0/16695,
		125.0/192 - 393.0/640,
		-2187.0/6784 + 92097.0/339200,
		11.0/84 - 187.0/2100,
		-1.0 / 40,
	}
)

// Stats reports integration effort. The factorization counters stay zero on
// the explicit path; T is maintained by both integrators so error returns
// (ErrStiff, ErrMinStep, …) carry the integration front alongside the state
// left in y0.
type Stats struct {
	Accepted       int     // accepted steps
	Rejected       int     // rejected trial steps
	Evals          int     // derivative evaluations
	JacEvals       int     // analytic Jacobian refills (stiff path)
	Factorizations int     // LU factorizations of the shifted matrix (stiff path)
	Solves         int     // triangular backsolves (stiff path)
	T              float64 // time reached when the integrator returned
	// HRho and WorkRatio are the stiffness test's evidence (StiffDetect):
	// h·ρ at the step the test judged and the predicted explicit-to-stiff
	// work ratio there — the handoff's on ErrStiff, otherwise the largest
	// ratio judged. Both stay zero if the step never reached the edge.
	HRho      float64
	WorkRatio float64
}

// Add accumulates other into st, keeping the larger T — the merge used when
// an auto-switching run hands off between integrators. The stiffness
// evidence stays st's: only the explicit leg judges.
func (st *Stats) Add(other Stats) {
	st.Accepted += other.Accepted
	st.Rejected += other.Rejected
	st.Evals += other.Evals
	st.JacEvals += other.JacEvals
	st.Factorizations += other.Factorizations
	st.Solves += other.Solves
	if other.T > st.T {
		st.T = other.T
	}
}

// stiffTest is the state of the stiffness test across accepted steps.
type stiffTest struct {
	edge, calm int     // edge steps in the stretch, calm steps in a row
	steps      int     // accepted steps since the stretch began
	t0         float64 // time at which the stretch began
	hStiff     float64 // predicted stiff step, min(stiffStep, MaxStep)
}

// accept records one accepted step from t to t+h with stiffness estimate
// hRho and reports whether the run should hand off. It leaves the judged
// stretch's evidence in st.
func (s *stiffTest) accept(t, h, hRho float64, st *Stats) bool {
	if s.edge > 0 {
		s.steps++
	}
	if hRho <= stiffEdge {
		s.calm++
		if s.calm >= stiffCalm {
			s.edge = 0
		}
		return false
	}
	if s.edge == 0 {
		s.t0, s.steps = t, 1
	}
	s.edge++
	s.calm = 0
	if s.edge < stiffEdgeSteps {
		return false
	}
	s.edge = 0
	hMean := (t + h - s.t0) / float64(s.steps)
	ratio := 6 / hMean * s.hStiff / stiffPrice
	if ratio > st.WorkRatio {
		st.HRho, st.WorkRatio = hRho, ratio
	}
	return ratio > 1
}

// Integrate advances y0 from t0 to t1 with the adaptive Dormand–Prince 5(4)
// method, calling cb (if non-nil) after every accepted step. y0 is modified
// in place and holds the final state on return.
//
// The context is polled every ctxCheckEvery (256) steps; on cancellation the
// integration stops and returns ctx.Err() wrapped with the time reached, so
// long integrations can actually be interrupted by timeouts or Ctrl-C. A nil
// ctx behaves like context.Background().
func Integrate(ctx context.Context, f Func, y0 []float64, t0, t1 float64, opts Options, cb Observer) (Stats, error) {
	var st Stats
	st.T = t0
	if t1 < t0 {
		return st, fmt.Errorf("ode: t1 (%g) < t0 (%g)", t1, t0)
	}
	if t1 == t0 {
		return st, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.withDefaults(t1 - t0)

	n := len(y0)
	var k [7][]float64
	for i := range k {
		k[i] = make([]float64, n)
	}
	ytmp := make([]float64, n)
	y6 := make([]float64, n)
	ynew := make([]float64, n)

	t := t0
	h := math.Min(o.InitStep, o.MaxStep)
	f(t, y0, k[0])
	st.Evals++
	fsalValid := true
	stiff := stiffTest{hStiff: math.Min(stiffStep, o.MaxStep)}

	for t < t1 {
		st.T = t
		if (st.Accepted+st.Rejected)%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return st, fmt.Errorf("ode: interrupted at t=%g of [%g,%g]: %w", t, t0, t1, err)
			}
		}
		if st.Accepted+st.Rejected >= o.MaxSteps {
			return st, fmt.Errorf("%w at t=%g (%d steps)", ErrMaxSteps, t, o.MaxSteps)
		}
		if h < o.MinStep {
			return st, fmt.Errorf("%w at t=%g (h=%g)", ErrMinStep, t, h)
		}
		if t+h > t1 {
			h = t1 - t
		}
		if !fsalValid {
			f(t, y0, k[0])
			st.Evals++
			fsalValid = true
		}
		// Stages 2..7. Stage 6's argument stays in y6 for the stiffness
		// estimate; stage 7's is the 5th-order solution (a7 row == b row).
		for s := 1; s < 7; s++ {
			ys := ytmp
			switch s {
			case 5:
				ys = y6
			case 6:
				ys = ynew
			}
			for i := 0; i < n; i++ {
				acc := 0.0
				for j := 0; j < s; j++ {
					acc += dpA[s][j] * k[j][i]
				}
				ys[i] = y0[i] + h*acc
			}
			f(t+dpC[s]*h, ys, k[s])
			st.Evals++
		}

		// Error norm.
		errNorm := 0.0
		for i := 0; i < n; i++ {
			e := 0.0
			for j := 0; j < 7; j++ {
				e += dpE[j] * k[j][i]
			}
			e *= h
			sc := o.AbsTol + o.RelTol*math.Max(math.Abs(y0[i]), math.Abs(ynew[i]))
			r := e / sc
			errNorm += r * r
		}
		errNorm = math.Sqrt(errNorm / float64(n))

		if errNorm <= 1 || h <= o.MinStep*1.01 {
			// Accept.
			handoff := o.StiffDetect && stiff.accept(t, h, h*stiffRho(k[6], k[5], ynew, y6), &st)
			st.Accepted++
			t += h
			copy(y0, ynew)
			// Projection moves y by amounts within the error tolerance,
			// so the FSAL derivative below stays valid.
			if o.NonNegative {
				for i := range y0 {
					if y0[i] < 0 {
						y0[i] = 0
					}
				}
			}
			// FSAL: k7 becomes next k1.
			k[0], k[6] = k[6], k[0]
			if cb != nil {
				modified, stop := cb(t, y0)
				if modified {
					fsalValid = false
				}
				if stop {
					st.T = t
					return st, nil
				}
			}
			if handoff {
				st.T = t
				return st, fmt.Errorf("%w at t=%g (h·ρ=%.3g, explicit/stiff work %.3g)",
					ErrStiff, t, st.HRho, st.WorkRatio)
			}
		} else {
			st.Rejected++
		}
		// PI-free elementary controller.
		fac := 0.9 * math.Pow(errNorm, -0.2)
		if errNorm == 0 {
			fac = 5
		}
		fac = math.Max(0.2, math.Min(5, fac))
		h = math.Min(h*fac, o.MaxStep)
	}
	st.T = t
	return st, nil
}

// stiffRho is the dominant-eigenvalue estimate ‖k7 − k6‖ / ‖y1 − y6‖ of a
// DP5 step whose stages 6 and 7 were evaluated at y6 and y1. It is 0 when
// the two arguments coincide.
func stiffRho(k7, k6, y1, y6 []float64) float64 {
	num, den := 0.0, 0.0
	for i := range y1 {
		d := k7[i] - k6[i]
		num += d * d
		e := y1[i] - y6[i]
		den += e * e
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// RK4 advances y0 from t0 to t1 with the classical fixed-step fourth-order
// Runge–Kutta method using nsteps equal steps, calling cb (if non-nil)
// after every step. It exists for convergence cross-checks against the
// adaptive integrator.
func RK4(f Func, y0 []float64, t0, t1 float64, nsteps int, cb Observer) error {
	if nsteps <= 0 {
		return fmt.Errorf("ode: RK4 needs positive step count, got %d", nsteps)
	}
	if t1 < t0 {
		return fmt.Errorf("ode: t1 (%g) < t0 (%g)", t1, t0)
	}
	n := len(y0)
	h := (t1 - t0) / float64(nsteps)
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	ytmp := make([]float64, n)
	t := t0
	for s := 0; s < nsteps; s++ {
		f(t, y0, k1)
		for i := 0; i < n; i++ {
			ytmp[i] = y0[i] + 0.5*h*k1[i]
		}
		f(t+0.5*h, ytmp, k2)
		for i := 0; i < n; i++ {
			ytmp[i] = y0[i] + 0.5*h*k2[i]
		}
		f(t+0.5*h, ytmp, k3)
		for i := 0; i < n; i++ {
			ytmp[i] = y0[i] + h*k3[i]
		}
		f(t+h, ytmp, k4)
		for i := 0; i < n; i++ {
			y0[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t = t0 + float64(s+1)*h
		if cb != nil {
			if _, stop := cb(t, y0); stop {
				return nil
			}
		}
	}
	return nil
}
