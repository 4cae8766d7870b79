package ode

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// denseJac adapts a dense matrix-valued Jacobian function to the sparse
// Jacobian interface with an all-nonzero pattern — fine for the small test
// systems here.
type denseJac struct {
	n    int
	eval func(t float64, y []float64, m []float64) // row-major n×n
	m    []float64
}

func newDenseJac(n int, eval func(t float64, y, m []float64)) *denseJac {
	return &denseJac{n: n, eval: eval, m: make([]float64, n*n)}
}

func (d *denseJac) Dim() int { return d.n }

func (d *denseJac) Pattern() (colPtr, rowIdx []int32) {
	colPtr = make([]int32, d.n+1)
	rowIdx = make([]int32, d.n*d.n)
	for p := 0; p <= d.n; p++ {
		colPtr[p] = int32(p * d.n)
	}
	for p := 0; p < d.n; p++ {
		for r := 0; r < d.n; r++ {
			rowIdx[p*d.n+r] = int32(r)
		}
	}
	return colPtr, rowIdx
}

func (d *denseJac) Fill(t float64, y, nz []float64) {
	d.eval(t, y, d.m)
	for p := 0; p < d.n; p++ {
		for r := 0; r < d.n; r++ {
			nz[p*d.n+r] = d.m[r*d.n+p]
		}
	}
}

func TestStiffExponentialDecay(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = -2 * y[0] }
	jac := newDenseJac(1, func(_ float64, _, m []float64) { m[0] = -2 })
	y := []float64{1}
	st, err := IntegrateStiff(context.Background(), f, jac, y, 0, 3, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-6)
	if math.Abs(y[0]-want) > 1e-5 {
		t.Fatalf("y(3) = %g, want %g (accepted %d)", y[0], want, st.Accepted)
	}
	if st.Factorizations == 0 || st.JacEvals == 0 || st.Solves == 0 {
		t.Fatalf("stiff counters not maintained: %+v", st)
	}
	if st.T != 3 {
		t.Fatalf("Stats.T = %g, want 3", st.T)
	}
}

// TestStiffFastSlowSystem is the regime the integrator exists for: a linear
// fast/slow system with a 1000x rate separation. The stiff method must hit
// the answer with far fewer derivative evaluations than the explicit one.
func TestStiffFastSlowSystem(t *testing.T) {
	// y0' = -1000·(y0 − y1), y1' = -y1: y1 drags y0 along a slow manifold.
	f := func(_ float64, y, dydt []float64) {
		dydt[0] = -1000 * (y[0] - y[1])
		dydt[1] = -y[1]
	}
	jac := newDenseJac(2, func(_ float64, _, m []float64) {
		m[0], m[1] = -1000, 1000
		m[2], m[3] = 0, -1
	})
	span := 10.0

	yStiff := []float64{0, 1}
	stStiff, err := IntegrateStiff(context.Background(), f, jac, yStiff, 0, span, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	yExp := []float64{0, 1}
	stExp, err := Integrate(context.Background(), f, yExp, 0, span, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both must agree with the exact slow component e^{-t}.
	want := math.Exp(-span)
	for name, y := range map[string][]float64{"stiff": yStiff, "explicit": yExp} {
		if math.Abs(y[1]-want) > 1e-4*want+1e-6 {
			t.Fatalf("%s: y1(%g) = %g, want %g", name, span, y[1], want)
		}
	}
	if math.Abs(yStiff[0]-yExp[0]) > 1e-4 {
		t.Fatalf("solvers disagree on y0: stiff %g vs explicit %g", yStiff[0], yExp[0])
	}
	if stStiff.Evals*5 > stExp.Evals {
		t.Fatalf("stiff solver not ≥5x cheaper: %d vs %d derivative evals", stStiff.Evals, stExp.Evals)
	}
}

// TestStiffObserverContract checks the Observer semantics match Integrate:
// modification refreshes the cached derivative, stop ends without error.
func TestStiffObserverContract(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = -y[0] }
	jac := newDenseJac(1, func(_ float64, _, m []float64) { m[0] = -1 })

	// Inject a bolus at t ≥ 1: the state jump must be integrated, not
	// overwritten by stale FSAL data.
	y := []float64{1}
	injected := false
	_, err := IntegrateStiff(context.Background(), f, jac, y, 0, 2, Options{MaxStep: 0.05}, func(tt float64, yy []float64) (bool, bool) {
		if !injected && tt >= 1 {
			injected = true
			yy[0] += 10
			return true, false
		}
		return false, false
	})
	if err != nil {
		t.Fatal(err)
	}
	if !injected {
		t.Fatal("observer never fired")
	}
	// y(2) ≈ e^{-2} + 10·e^{-(2-t_inj)} with t_inj ∈ [1, 1.05].
	lo := math.Exp(-2) + 10*math.Exp(-1)
	hi := math.Exp(-2) + 10*math.Exp(-0.95)
	if y[0] < lo*0.99 || y[0] > hi*1.01 {
		t.Fatalf("y(2) = %g, want within [%g, %g]", y[0], lo, hi)
	}

	// Stop request ends early without error.
	y = []float64{1}
	st, err := IntegrateStiff(context.Background(), f, jac, y, 0, 100, Options{MaxStep: 0.1}, func(tt float64, _ []float64) (bool, bool) {
		return false, tt >= 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.T < 1 || st.T > 1.2 {
		t.Fatalf("stopped at T=%g, want ~1", st.T)
	}
}

// TestStiffDetectHandoff drives the explicit integrator into its stiffness
// detector on a fast/slow system, then resumes with the stiff method from
// the returned front and checks the composite trajectory is still right.
func TestStiffDetectHandoff(t *testing.T) {
	f := func(_ float64, y, dydt []float64) {
		dydt[0] = -1e5 * (y[0] - y[1])
		dydt[1] = -y[1]
	}
	jac := newDenseJac(2, func(_ float64, _, m []float64) {
		m[0], m[1] = -1e5, 1e5
		m[2], m[3] = 0, -1
	})
	span := 10.0
	y := []float64{0, 1}
	st, err := Integrate(context.Background(), f, y, 0, span, Options{StiffDetect: true}, nil)
	if !errors.Is(err, ErrStiff) {
		t.Fatalf("explicit integrator returned %v, want ErrStiff", err)
	}
	if st.T < 0 || st.T >= span {
		t.Fatalf("detection front T=%g outside (0, %g)", st.T, span)
	}
	st2, err := IntegrateStiff(context.Background(), f, jac, y, st.T, span, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.T != span {
		t.Fatalf("resume reached T=%g, want %g", st2.T, span)
	}
	want := math.Exp(-span)
	if math.Abs(y[1]-want) > 1e-4*want+1e-6 {
		t.Fatalf("y1(%g) = %g after handoff, want %g", span, y[1], want)
	}
}

// TestStiffTestEvidence drives both sides of the stiffness test on the
// relaxation y0' = −λ(y0 − y1), y1' = −y1, whose dominant eigenvalue is λ.
// At λ = 1e5 the stability edge pins the explicit step near 3.3e-5 and the
// test hands off; at λ = 10, once the solution has decayed below the
// tolerances, the step grows to the same edge near 0.33, where the
// explicit method is far cheaper than priced stiff steps, so the run stays
// explicit and reports the work ratio it judged.
func TestStiffTestEvidence(t *testing.T) {
	relax := func(lambda float64) Func {
		return func(_ float64, y, dydt []float64) {
			dydt[0] = -lambda * (y[0] - y[1])
			dydt[1] = -y[1]
		}
	}
	st, err := Integrate(context.Background(), relax(1e5), []float64{0, 1}, 0, 10, Options{StiffDetect: true}, nil)
	if !errors.Is(err, ErrStiff) {
		t.Fatalf("λ=1e5: %v, want ErrStiff", err)
	}
	if st.HRho <= stiffEdge || st.HRho > 4 || st.WorkRatio <= 1 {
		t.Fatalf("λ=1e5: handoff evidence h·ρ %g, work ratio %g", st.HRho, st.WorkRatio)
	}
	st, err = Integrate(context.Background(), relax(10), []float64{0, 1}, 0, 100, Options{StiffDetect: true}, nil)
	if err != nil {
		t.Fatalf("λ=10: %v", err)
	}
	if st.HRho <= stiffEdge || st.WorkRatio <= 0 || st.WorkRatio >= 1 {
		t.Fatalf("λ=10: evidence h·ρ %g, work ratio %g; want an edge judged cheaper explicit", st.HRho, st.WorkRatio)
	}
}

// TestStiffInnerLoopAllocs pins the hot-path contract: once a Stiff is
// constructed, repeated integrations — factorizations, solves, steps —
// allocate nothing.
func TestStiffInnerLoopAllocs(t *testing.T) {
	f := func(_ float64, y, dydt []float64) {
		dydt[0] = -500 * (y[0] - y[1])
		dydt[1] = -y[1]
	}
	jac := newDenseJac(2, func(_ float64, _, m []float64) {
		m[0], m[1] = -500, 500
		m[2], m[3] = 0, -1
	})
	s := NewStiff(jac)
	y := make([]float64, 2)
	ctx := context.Background()
	if n := testing.AllocsPerRun(20, func() {
		y[0], y[1] = 0, 1
		if _, err := s.Integrate(ctx, f, y, 0, 5, Options{}, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("stiff integration allocates %v per run, want 0", n)
	}
}

// TestSparseLUAgainstDense factors random sparse matrices and checks
// M·(M⁻¹b) = b, exercising fill-in and the no-pivot topological order.
func TestSparseLUAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		// Random CSC pattern for J with ~25% density.
		var colPtr []int32
		var rowIdx []int32
		colPtr = append(colPtr, 0)
		for p := 0; p < n; p++ {
			for r := 0; r < n; r++ {
				if rng.Float64() < 0.25 {
					rowIdx = append(rowIdx, int32(r))
				}
			}
			colPtr = append(colPtr, int32(len(rowIdx)))
		}
		jnz := make([]float64, len(rowIdx))
		for i := range jnz {
			jnz[i] = rng.NormFloat64()
		}
		hd := 0.05 + 0.5*rng.Float64()

		lu := newSparseLU(n, colPtr, rowIdx, minDegreeOrder(n, colPtr, rowIdx))
		lu.setShifted(hd, jnz)
		if err := lu.factor(); err != nil {
			// Random matrices can legitimately produce a zero pivot
			// without pivoting; skip those draws.
			continue
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		lu.solve(b, x)

		// Dense M = I − hd·J for the residual check.
		dense := make([]float64, n*n)
		for p := 0; p < n; p++ {
			dense[p*n+p] = 1
			for e := colPtr[p]; e < colPtr[p+1]; e++ {
				dense[int(rowIdx[e])*n+p] -= hd * jnz[e]
			}
		}
		for r := 0; r < n; r++ {
			acc := 0.0
			for c := 0; c < n; c++ {
				acc += dense[r*n+c] * x[c]
			}
			if math.Abs(acc-b[r]) > 1e-7*(1+math.Abs(b[r])) {
				t.Fatalf("trial %d: residual row %d: M·x = %g, b = %g", trial, r, acc, b[r])
			}
		}
	}
}

// TestSparseLUSolveAliasing checks the documented b/out aliasing contract.
func TestSparseLUSolveAliasing(t *testing.T) {
	colPtr := []int32{0, 1, 2}
	rowIdx := []int32{1, 0} // J = [[0, a], [b, 0]]
	lu := newSparseLU(2, colPtr, rowIdx, minDegreeOrder(2, colPtr, rowIdx))
	lu.setShifted(0.1, []float64{2, 3})
	if err := lu.factor(); err != nil {
		t.Fatal(err)
	}
	b1 := []float64{1, 2}
	x := make([]float64, 2)
	lu.solve(b1, x)
	b2 := []float64{1, 2}
	lu.solve(b2, b2)
	if b2[0] != x[0] || b2[1] != x[1] {
		t.Fatalf("aliased solve %v != separate solve %v", b2, x)
	}
}
