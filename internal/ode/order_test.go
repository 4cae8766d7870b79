package ode_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/crn"
	"repro/internal/logic"
	"repro/internal/ode"
	"repro/internal/phases"
	"repro/internal/sfg"
	"repro/internal/sfg/sfgtest"
	"repro/internal/sim/kernel"
	"repro/internal/synth"
)

// kernelJac adapts a compiled network's analytic Jacobian to ode.Jacobian.
type kernelJac struct {
	c *kernel.Compiled
	j *kernel.Jacobian
}

func (a kernelJac) Dim() int                          { return a.j.Dim() }
func (a kernelJac) Pattern() (colPtr, rowIdx []int32) { return a.j.Pattern() }
func (a kernelJac) Fill(_ float64, y, nz []float64)   { a.j.Fill(a.c, y, nz) }

// compile binds the paper's stiff rate split, fast/slow = 3e4.
func compile(n *crn.Network) kernelJac {
	c := kernel.Compile(n, func(r crn.Reaction) float64 {
		if r.Cat == crn.Fast {
			return 3e4 * r.Mult
		}
		return r.Mult
	})
	return kernelJac{c: c, j: c.Jac()}
}

// denseSolve solves the row-major n×n system a·x = b by Gaussian
// elimination with partial pivoting; a and b are overwritten.
func denseSolve(n int, a, b []float64) []float64 {
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i*n+k]) > math.Abs(a[p*n+k]) {
				p = i
			}
		}
		for c := 0; c < n; c++ {
			a[k*n+c], a[p*n+c] = a[p*n+c], a[k*n+c]
		}
		b[k], b[p] = b[p], b[k]
		for i := k + 1; i < n; i++ {
			m := a[i*n+k] / a[k*n+k]
			for c := k; c < n; c++ {
				a[i*n+c] -= m * a[k*n+c]
			}
			b[i] -= m * b[k]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		acc := b[i]
		for c := i + 1; c < n; c++ {
			acc -= a[i*n+c] * x[c]
		}
		x[i] = acc / a[i*n+i]
	}
	return x
}

// TestOrderedLUMatchesDense is the property test of the reordered
// factorization: on networks synthesized from random signal-flow graphs,
// at random positive states and step sizes spanning the stiff range, the
// minimum-degree factor and solve of I − h·d·J must agree with a dense
// partial-pivoting solve of the same matrix.
func TestOrderedLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		cp, err := synth.Compile(sfgtest.Random(t, rng), fmt.Sprintf("t%d", trial))
		if err != nil {
			t.Fatalf("trial %d: synth.Compile: %v", trial, err)
		}
		jac := compile(cp.Circuit.Net)
		n := jac.Dim()
		colPtr, rowIdx := jac.Pattern()
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.Float64() * 2
		}
		jnz := make([]float64, len(rowIdx))
		jac.Fill(0, y, jnz)
		hd := math.Pow(10, -6+4*rng.Float64()) // 1e-6..1e-2: hd·kfast from 0.03 to 300
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}

		x, _, err := ode.FactorSolve(n, colPtr, rowIdx, ode.MinDegreeOrder(n, colPtr, rowIdx), hd, jnz, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m := make([]float64, n*n)
		for p := 0; p < n; p++ {
			m[p*n+p] = 1
			for e := colPtr[p]; e < colPtr[p+1]; e++ {
				m[int(rowIdx[e])*n+p] -= hd * jnz[e]
			}
		}
		want := denseSolve(n, slices.Clone(m), slices.Clone(b))
		scale := 0.0
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range x {
			if d := math.Abs(x[i] - want[i]); d > 1e-9*(1+scale) {
				t.Fatalf("trial %d (n=%d, hd=%g): x[%d] = %g, dense %g", trial, n, hd, i, x[i], want[i])
			}
		}
		// Residual of the sparse solution against the unpermuted matrix.
		for r := 0; r < n; r++ {
			acc, mag := -b[r], math.Abs(b[r])
			for c := 0; c < n; c++ {
				acc += m[r*n+c] * x[c]
				mag += math.Abs(m[r*n+c] * x[c])
			}
			if math.Abs(acc) > 1e-12*mag {
				t.Fatalf("trial %d: residual row %d = %g (scale %g)", trial, r, acc, mag)
			}
		}
	}
}

// ring builds the clocked k-register ring shifter.
func ring(t *testing.T, k int) *crn.Network {
	t.Helper()
	c := core.New("ring")
	regs := make([]*core.Register, k)
	for i := range regs {
		init := 0.0
		if i == 0 {
			init = 1 // the circulating token
		}
		r, err := c.NewRegister(fmt.Sprintf("d%d", i), init)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = r
	}
	for i := range regs {
		if err := c.Gain(regs[i].Q, regs[(i+1)%k].NS, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c.Net
}

// TestMinDegreeFill reports L+U under minimum degree against the natural
// order for the paper's designs, and pins what the ordering buys: at most
// 60% of the natural-order fill on every design but the 9-species clock,
// which has little fill to remove, and never more than natural.
func TestMinDegreeFill(t *testing.T) {
	clk := crn.NewNetwork()
	s := phases.NewScheme(clk, "ph")
	if _, err := clock.Add(s, "clk", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	fc, err := logic.Counter(2)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := logic.Compile(fc, "cnt")
	if err != nil {
		t.Fatal(err)
	}
	ma := func(taps int) *crn.Network {
		g, err := sfg.MovingAverage(taps)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := synth.Compile(g, "f")
		if err != nil {
			t.Fatal(err)
		}
		return cp.Circuit.Net
	}
	for _, d := range []struct {
		name     string
		net      *crn.Network
		maxShare float64
	}{
		{"clock", clk, 1}, {"ring2", ring(t, 2), 0.6}, {"ring4", ring(t, 4), 0.6},
		{"ring8", ring(t, 8), 0.6}, {"cnt2", cnt.Circuit.Net, 0.6},
		{"ma2", ma(2), 0.6}, {"ma4", ma(4), 0.6},
	} {
		jac := compile(d.net)
		n := jac.Dim()
		colPtr, rowIdx := jac.Pattern()
		jnz := make([]float64, len(rowIdx))
		b := make([]float64, n)
		fill := func(perm []int32) int {
			_, f, err := ode.FactorSolve(n, colPtr, rowIdx, perm, 0, jnz, b)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		natural := make([]int32, n)
		for i := range natural {
			natural[i] = int32(i)
		}
		md, nat := fill(ode.MinDegreeOrder(n, colPtr, rowIdx)), fill(natural)
		t.Logf("%-6s %4d species, J %5d nonzeros, L+U %5d (minimum degree) vs %5d (natural): %.0f%%",
			d.name, n, len(rowIdx), md, nat, 100*float64(md)/float64(nat))
		if float64(md) > d.maxShare*float64(nat) {
			t.Errorf("%s: minimum-degree fill %d > %.0f%% of natural-order fill %d",
				d.name, md, 100*d.maxShare, nat)
		}
	}
}

// TestStiffOrderDeterministic checks that the ordering depends on the
// pattern alone: two integrators on one pattern pick one pivot order, and
// it is a permutation.
func TestStiffOrderDeterministic(t *testing.T) {
	jac := compile(ring(t, 4))
	a, b := ode.NewStiff(jac).Order(), ode.NewStiff(jac).Order()
	if !slices.Equal(a, b) {
		t.Fatal("two NewStiff calls on one pattern chose different orders")
	}
	seen := make([]bool, jac.Dim())
	for _, p := range a {
		if seen[p] {
			t.Fatalf("pivot %d appears twice", p)
		}
		seen[p] = true
	}
	if len(a) != len(seen) {
		t.Fatalf("order has %d pivots for %d species", len(a), len(seen))
	}
}

// TestStaleJacobianInflatesError measures why every attempt factors a
// Jacobian taken at the current state. Along the 4-register ring's stiff
// trajectory at fast/slow = 3e4, it repeats each accepted step (same state,
// same h) once with J at that state and once with J one step old, the
// factors a reuse policy would have kept. The ode23s estimate is 3rd order
// only with the current J; on the median step the stale one at least
// doubles it, which turns accepted steps into rejections.
func TestStaleJacobianInflatesError(t *testing.T) {
	net := ring(t, 4)
	jac := compile(net)
	f := func(_ float64, y, dydt []float64) { jac.c.Deriv(y, dydt) }
	ts, ys := []float64{0}, [][]float64{net.Init()}
	y := net.Init()
	if _, err := ode.IntegrateStiff(context.Background(), f, jac, y, 0, 10, ode.Options{}, func(tt float64, yy []float64) (bool, bool) {
		ts, ys = append(ts, tt), append(ys, slices.Clone(yy))
		return false, false
	}); err != nil {
		t.Fatal(err)
	}

	probe := ode.NewStiff(jac)
	_, rowIdx := jac.Pattern()
	jNow, jOld := make([]float64, len(rowIdx)), make([]float64, len(rowIdx))
	stepErr := func(i int, jnz []float64) float64 {
		e, err := probe.StepError(f, ts[i], ts[i+1]-ts[i], ys[i], jnz)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var ratios []float64
	for i := 1; i+1 < len(ts); i++ {
		if ts[i] < 1 { // past the initial transient
			continue
		}
		jac.Fill(ts[i], ys[i], jNow)
		jac.Fill(ts[i-1], ys[i-1], jOld)
		eNow, eOld := stepErr(i, jNow), stepErr(i, jOld)
		ratios = append(ratios, eOld/eNow)
		if ts[i] >= 2 && ts[i-1] < 2 {
			t.Logf("t = %.4f, h = %.3g: err %.3g with the current J, %.3g with J one step old",
				ts[i], ts[i+1]-ts[i], eNow, eOld)
		}
	}
	slices.Sort(ratios)
	q := func(f float64) float64 { return ratios[int(f*float64(len(ratios)-1))] }
	t.Logf("stale/current error over %d steps: quartiles %.2f %.2f %.2f", len(ratios), q(0.25), q(0.5), q(0.75))
	if q(0.5) < 2 {
		t.Errorf("median stale/current error ratio %.2f, want >= 2", q(0.5))
	}
}
