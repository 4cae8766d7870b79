package ode

import (
	"context"
	"fmt"
	"math"
)

// Jacobian supplies the sparse ∂f/∂y of a Func to the stiff integrator. The
// sparsity pattern must be fixed for the lifetime of the integration; Fill
// rewrites the nonzero values in pattern order and must not allocate (it
// runs on every Jacobian refresh). The package stays chemistry-free: sim
// adapts the kernel's compiled Jacobian to this interface.
type Jacobian interface {
	// Dim returns the system dimension n.
	Dim() int
	// Pattern returns the CSC sparsity pattern: column p's ascending row
	// indices are rowIdx[colPtr[p]:colPtr[p+1]]. The integrator treats the
	// slices as immutable.
	Pattern() (colPtr, rowIdx []int32)
	// Fill writes the Jacobian values at (t, y) into nz, one value per
	// pattern entry in pattern order.
	Fill(t float64, y []float64, nz []float64)
}

// Rosenbrock ode23s coefficients (Shampine & Reichelt, "The MATLAB ODE
// Suite"): a 2nd-order Rosenbrock-W method with a 3rd-order error estimate.
// The estimate is 3rd order only with the exact Jacobian at the step's
// start: on the paper's stiff rings a one-step-old J roughly triples it, so
// every attempt factors with a J evaluated at the current state, as ode23s
// does.
var (
	rosD   = 1 / (2 + math.Sqrt2)
	rosE32 = 6 + math.Sqrt2
)

// Stiff is a reusable Rosenbrock-W (ode23s) integrator bound to one Jacobian
// sparsity pattern. The constructor performs every allocation — workspaces,
// symbolic factorization — so Integrate itself allocates nothing on the
// per-step path (pinned by TestStiffInnerLoopAllocs) and one Stiff can be
// reused across repeated integrations of the same system. A Stiff is not
// safe for concurrent use.
type Stiff struct {
	jac Jacobian
	lu  *sparseLU
	jnz []float64

	f0, f1, f2 []float64
	k1, k2, k3 []float64
	ytmp, ynew []float64
}

// NewStiff builds a stiff integrator for the given Jacobian, running the
// ordering and symbolic factorization of the shifted matrix I − h·d·J once.
func NewStiff(jac Jacobian) *Stiff {
	n := jac.Dim()
	colPtr, rowIdx := jac.Pattern()
	return &Stiff{
		jac:  jac,
		lu:   newSparseLU(n, colPtr, rowIdx, minDegreeOrder(n, colPtr, rowIdx)),
		jnz:  make([]float64, len(rowIdx)),
		f0:   make([]float64, n),
		f1:   make([]float64, n),
		f2:   make([]float64, n),
		k1:   make([]float64, n),
		k2:   make([]float64, n),
		k3:   make([]float64, n),
		ytmp: make([]float64, n),
		ynew: make([]float64, n),
	}
}

// IntegrateStiff advances y0 from t0 to t1 with the Rosenbrock-W method,
// mirroring Integrate's contract (Options, Observer, context polling, y0
// modified in place). Callers integrating the same system repeatedly should
// allocate a Stiff once and call its Integrate method instead.
func IntegrateStiff(ctx context.Context, f Func, jac Jacobian, y0 []float64, t0, t1 float64, opts Options, cb Observer) (Stats, error) {
	return NewStiff(jac).Integrate(ctx, f, y0, t0, t1, opts, cb)
}

// Integrate advances y0 from t0 to t1, calling cb (if non-nil) after every
// accepted step. y0 is modified in place and holds the final state on
// return; Stats.T reports the time reached on both success and failure.
//
// Per attempted step the method costs one factorization of I − h·d·J, three
// derivative evaluations and three triangular solves. J is refilled whenever
// the state has moved since the last refill, so a retry after a rejection
// reuses it: J(t, y) has not changed, only h.
func (s *Stiff) Integrate(ctx context.Context, f Func, y0 []float64, t0, t1 float64, opts Options, cb Observer) (Stats, error) {
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
	if n := s.jac.Dim(); len(y0) != n {
		return st, fmt.Errorf("ode: state dimension %d != Jacobian dimension %d", len(y0), n)
	}
	o := opts.withDefaults(t1 - t0)

	t := t0
	h := math.Min(o.InitStep, o.MaxStep)
	f(t, y0, s.f0)
	st.Evals++

	jacStale := true // J was last filled at another state
	retry := false   // the last attempt was rejected: do not grow h

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

		if jacStale {
			s.jac.Fill(t, y0, s.jnz)
			st.JacEvals++
			jacStale = false
		}
		s.lu.setShifted(h*rosD, s.jnz)
		if err := s.lu.factor(); err != nil {
			// Singular shifted matrix: treat as a rejection and shrink.
			st.Rejected++
			retry = true
			h *= 0.5
			continue
		}
		st.Factorizations++

		errNorm := s.attempt(f, t, h, y0, o)
		st.Evals += 2
		st.Solves += 3
		// fac = clamp(0.9·err^(−1/3), 0.2, 5).
		fac := 5.0
		if errNorm > 0 {
			fac = math.Max(0.2, math.Min(5, 0.9*math.Pow(errNorm, -1.0/3)))
		}

		if errNorm <= 1 || h <= o.MinStep*1.01 {
			st.Accepted++
			t += h
			st.T = t
			jacStale = true
			copy(y0, s.ynew)
			if o.NonNegative {
				for i := range y0 {
					if y0[i] < 0 {
						y0[i] = 0
					}
				}
			}
			// FSAL: f2 at ynew is next step's f0. Projection perturbs the
			// state within tolerance, same reasoning as the explicit path.
			s.f0, s.f2 = s.f2, s.f0
			if cb != nil {
				modified, stop := cb(t, y0)
				if modified {
					// State jumped: recompute the cached derivative.
					f(t, y0, s.f0)
					st.Evals++
				}
				if stop {
					return st, nil
				}
			}
			if retry {
				fac = math.Min(fac, 1)
				retry = false
			}
			h = math.Min(h*fac, o.MaxStep)
		} else {
			st.Rejected++
			retry = true
			h *= fac
		}
	}
	st.T = t
	return st, nil
}

// attempt takes one ode23s step of size h from (t, y0), whose derivative
// is in s.f0, against the current factorization of I − h·d·J. It leaves
// the candidate state in s.ynew and its derivative in s.f2, and returns the
// RMS error estimate scaled by the tolerances.
func (s *Stiff) attempt(f Func, t, h float64, y0 []float64, o Options) float64 {
	n := len(y0)
	// k1 = W⁻¹·f0.
	s.lu.solve(s.f0, s.k1)
	// f1 = f(t + h/2, y + (h/2)·k1).
	for i := 0; i < n; i++ {
		s.ytmp[i] = y0[i] + 0.5*h*s.k1[i]
	}
	f(t+0.5*h, s.ytmp, s.f1)
	// k2 = W⁻¹·(f1 − k1) + k1.
	for i := 0; i < n; i++ {
		s.ytmp[i] = s.f1[i] - s.k1[i]
	}
	s.lu.solve(s.ytmp, s.k2)
	for i := 0; i < n; i++ {
		s.k2[i] += s.k1[i]
	}
	// ynew = y + h·k2; f2 = f(t+h, ynew).
	for i := 0; i < n; i++ {
		s.ynew[i] = y0[i] + h*s.k2[i]
	}
	f(t+h, s.ynew, s.f2)
	// k3 = W⁻¹·(f2 − e32·(k2 − f1) − 2·(k1 − f0)).
	for i := 0; i < n; i++ {
		s.ytmp[i] = s.f2[i] - rosE32*(s.k2[i]-s.f1[i]) - 2*(s.k1[i]-s.f0[i])
	}
	s.lu.solve(s.ytmp, s.k3)

	// Embedded error estimate: err = (h/6)·(k1 − 2k2 + k3).
	errNorm := 0.0
	for i := 0; i < n; i++ {
		e := h / 6 * (s.k1[i] - 2*s.k2[i] + s.k3[i])
		sc := o.AbsTol + o.RelTol*math.Max(math.Abs(y0[i]), math.Abs(s.ynew[i]))
		r := e / sc
		errNorm += r * r
	}
	return math.Sqrt(errNorm / float64(n))
}
