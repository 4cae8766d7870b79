package repro_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/crn"
	"repro/internal/sfg/sfgtest"
	"repro/internal/sim"
	"repro/internal/sim/kernel"
	"repro/internal/synth"
)

// TestRingSolverEquivalence pins explicit-vs-stiff agreement on a real
// paper-class circuit: the 4-register clocked ring at default tolerances.
// The two integrators share nothing past the derivative evaluator — a
// 5th-order explicit pair vs a 2nd-order linearly-implicit Rosenbrock with
// analytic Jacobians and sparse LU — so final states within 10x RelTol of
// each other is end-to-end evidence that the whole stiff path (Jacobian,
// factorization, error control, auto handoff) integrates the same vector
// field.
func TestRingSolverEquivalence(t *testing.T) {
	n := buildRingNet(t, 4)
	finals := map[sim.Solver][]float64{}
	var names []string
	for _, s := range []sim.Solver{sim.SolverExplicit, sim.SolverStiff, sim.SolverAuto} {
		tr, err := sim.Run(context.Background(), n, sim.Config{
			Method: sim.ODE, Solver: s,
			Rates: sim.Rates{Fast: 300, Slow: 1}, TEnd: 10,
		})
		if err != nil {
			t.Fatalf("solver %v: %v", s, err)
		}
		finals[s] = tr.Rows[len(tr.Rows)-1]
		names = tr.Names
	}
	relTol := 1e-6 // ode.Options default, documented in internal/ode
	for _, s := range []sim.Solver{sim.SolverStiff, sim.SolverAuto} {
		for i := range finals[s] {
			ref := finals[sim.SolverExplicit][i]
			if diff := math.Abs(finals[s][i] - ref); diff > 10*relTol*(1+math.Abs(ref)) {
				t.Errorf("solver %v species %s: %g vs explicit %g (|Δ|=%g)",
					s, names[i], finals[s][i], ref, diff)
			}
		}
	}
}

// FuzzSolverFinals draws a network of the paper's circuit class (a random
// signal-flow graph through synth), a fast/slow ratio in [100, 3000] and a
// horizon in [1, 5], and compares the finals of the three solvers.
//
// The automatic solver must match the method it ended on: bit for bit the
// explicit finals when it never handed off, and the stiff finals within
// TestRingSolverEquivalence's bound, 10·RelTol·(1+|ref|), when it did, so
// a handoff loses nothing. Explicit and stiff are held to each other
// within 2e-3·(1+|ref|): on drawn networks near ratio 3000 the explicit
// pair at its stability edge misses the clock phases by up to 6.5e-4 at
// the default tolerances (300 draws: median 3.7e-7, 90th percentile
// 1.5e-4), and a tight-tolerance rerun sides with the stiff finals to
// within 1e-7.
func FuzzSolverFinals(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(255))
	f.Add(int64(2), uint16(20000), uint8(128))
	f.Add(int64(3), uint16(45000), uint8(64))
	f.Add(int64(4), uint16(65535), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, ratioU uint16, horizonU uint8) {
		g := sfgtest.Random(t, rand.New(rand.NewSource(seed)))
		cp, err := synth.Compile(g, "f")
		if err != nil {
			t.Fatalf("synth.Compile: %v", err)
		}
		ratio := 100 * math.Pow(30, float64(ratioU)/math.MaxUint16)
		tEnd := 1 + 4*float64(horizonU)/math.MaxUint8
		finals := map[sim.Solver][]float64{}
		var names []string
		capt := &odeEndCapture{}
		for _, s := range sim.Solvers() {
			cfg := sim.Config{Method: sim.ODE, Solver: s, Rates: sim.Rates{Fast: ratio, Slow: 1}, TEnd: tEnd}
			if s == sim.SolverAuto {
				cfg.Obs = capt
			}
			tr, err := sim.Run(context.Background(), cp.Circuit.Net, cfg)
			if err != nil {
				t.Fatalf("solver %v at ratio %g over %g: %v", s, ratio, tEnd, err)
			}
			finals[s] = tr.Rows[len(tr.Rows)-1]
			names = tr.Names
		}
		relTol := 1e-6 // ode.Options default
		check := func(s, ref sim.Solver, bound float64) {
			for i, r := range finals[ref] {
				if diff := math.Abs(finals[s][i] - r); diff > bound*(1+math.Abs(r)) {
					t.Errorf("ratio %g over %g: %v species %s: %g vs %v %g (|Δ|=%g)",
						ratio, tEnd, s, names[i], finals[s][i], ref, r, diff)
				}
			}
		}
		if capt.end.ODE.Switched {
			check(sim.SolverAuto, sim.SolverStiff, 10*relTol)
		} else {
			check(sim.SolverAuto, sim.SolverExplicit, 0)
		}
		check(sim.SolverStiff, sim.SolverExplicit, 2e-3)
	})
}

// TestSynthJacobianProperty is the integration-level Jacobian property test:
// networks are not hand-rolled but synthesized from randomized signal-flow
// graphs (the repo's real workload generator), then every dense Jacobian
// entry is checked against a central finite difference of the same compiled
// derivative evaluator. A zero-order inflow is appended to each network so
// the trials collectively exercise all five rate-law forms (const, uni, bi,
// dimer, general), which the test asserts.
func TestSynthJacobianProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rate := func(r crn.Reaction) float64 {
		base := 1.0
		if r.Cat == crn.Fast {
			base = 100
		}
		return base * r.Mult
	}
	formsSeen := map[int8]bool{}
	for trial := 0; trial < 12; trial++ {
		g := sfgtest.Random(t, rng)
		cp, err := synth.Compile(g, fmt.Sprintf("t%d", trial))
		if err != nil {
			t.Fatalf("trial %d: synth.Compile: %v", trial, err)
		}
		net := cp.Circuit.Net
		// A zero-order source, which no synthesized construct emits.
		if err := net.AddReaction("inflow", nil,
			map[string]int{net.SpeciesName(rng.Intn(net.NumSpecies())): 1},
			crn.Slow, 0.5+rng.Float64()); err != nil {
			t.Fatalf("trial %d: inflow: %v", trial, err)
		}

		c := kernel.Compile(net, rate)
		for _, f := range c.Form {
			formsSeen[f] = true
		}
		jac := c.Jac()
		ns := c.NumSpecies
		y := make([]float64, ns)
		for i := range y {
			y[i] = 0.1 + rng.Float64()*2 // strictly positive, off the clamp
		}
		nz := make([]float64, jac.NNZ())
		jac.Fill(c, y, nz)
		dense := make([]float64, ns*ns)
		jac.Dense(nz, dense)

		fp := make([]float64, ns)
		fm := make([]float64, ns)
		yh := make([]float64, ns)
		for p := 0; p < ns; p++ {
			h := 1e-6 * math.Max(1, math.Abs(y[p]))
			copy(yh, y)
			yh[p] = y[p] + h
			c.Deriv(yh, fp)
			yh[p] = y[p] - h
			c.Deriv(yh, fm)
			for s := 0; s < ns; s++ {
				want := (fp[s] - fm[s]) / (2 * h)
				got := dense[s*ns+p]
				if diff := math.Abs(got - want); diff > 1e-5+1e-5*math.Abs(want) {
					t.Fatalf("trial %d: d f[%d]/d y[%d] = %g, central diff %g (|Δ|=%g)",
						trial, s, p, got, want, diff)
				}
			}
		}
	}
	for _, f := range []int8{kernel.FormConst, kernel.FormUni, kernel.FormBi,
		kernel.FormDimer, kernel.FormGeneral} {
		if !formsSeen[f] {
			t.Errorf("rate-law form %d never drawn; widen the generator", f)
		}
	}
}

// TestStiffControllerRing4 pins the Rosenbrock step controller where the
// stiff path earns its keep: the 4-register ring at fast/slow = 3e4. With a
// Jacobian evaluated at every step's start the ode23s error estimate is
// trustworthy, so rejections stay rare; and no attempt factors twice.
func TestStiffControllerRing4(t *testing.T) {
	capt := &odeEndCapture{}
	if _, err := sim.Run(context.Background(), buildRingNet(t, 4), sim.Config{
		Method: sim.ODE, Solver: sim.SolverStiff,
		Rates: sim.Rates{Fast: 3e4, Slow: 1}, TEnd: 10, Obs: capt,
	}); err != nil {
		t.Fatal(err)
	}
	od := capt.end.ODE
	t.Logf("accepted %d, rejected %d, factorizations %d, jacobians %d, solves %d",
		od.StiffSteps, od.Rejected, od.Factorizations, od.JacEvals, od.Solves)
	if od.Rejected*50 > od.StiffSteps {
		t.Errorf("%d rejections for %d accepted steps, want at most 2%%", od.Rejected, od.StiffSteps)
	}
	if od.Factorizations > od.StiffSteps+od.Rejected {
		t.Errorf("%d factorizations for %d attempts", od.Factorizations, od.StiffSteps+od.Rejected)
	}
}
