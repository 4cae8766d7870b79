package sim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/crn"
	"repro/internal/obs"
)

// stiffNet builds a fast equilibrium A <-> B drained slowly into C — the
// textbook fast/slow structure of the paper's constructs. With the default
// Fast=100 it is mildly stiff; driving Fast up makes the explicit method's
// stability limit arbitrarily punishing while the solution stays smooth.
func stiffNet(t testing.TB) *crn.Network {
	t.Helper()
	n := crn.NewNetwork()
	n.R("fwd", map[string]int{"A": 1}, map[string]int{"B": 1}, crn.Fast)
	n.R("rev", map[string]int{"B": 1}, map[string]int{"A": 1}, crn.Fast)
	n.R("drain", map[string]int{"B": 1}, map[string]int{"C": 1}, crn.Slow)
	if err := n.SetInit("A", 1); err != nil {
		t.Fatal(err)
	}
	return n
}

// simEndCapture records the run's closing SimEnd event.
type simEndCapture struct {
	obs.Base
	end obs.SimEnd
}

func (c *simEndCapture) OnSimEnd(e obs.SimEnd) { c.end = e }

func TestParseSolver(t *testing.T) {
	cases := map[string]Solver{
		"": SolverAuto, "auto": SolverAuto, "AUTO": SolverAuto,
		"explicit": SolverExplicit, "dp5": SolverExplicit, "rk45": SolverExplicit,
		"stiff": SolverStiff, "Rosenbrock": SolverStiff, "ros23": SolverStiff, "implicit": SolverStiff,
	}
	for in, want := range cases {
		got, err := ParseSolver(in)
		if err != nil || got != want {
			t.Errorf("ParseSolver(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSolver("bogus"); err == nil || !strings.Contains(err.Error(), "auto, explicit, stiff") {
		t.Errorf("ParseSolver(bogus) error = %v, want list of valid solvers", err)
	}
	for _, s := range Solvers() {
		back, err := ParseSolver(s.String())
		if err != nil || back != s {
			t.Errorf("round trip %v -> %q -> %v, %v", s, s.String(), back, err)
		}
	}
}

func TestConfigValidateSolver(t *testing.T) {
	fieldOf := func(err error) []string {
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("error %v is not a *ConfigError", err)
		}
		var fs []string
		for _, f := range ce.Fields {
			fs = append(fs, f.Field)
		}
		return fs
	}
	// A forced solver on a stochastic method is a config error.
	err := Config{Method: SSA, Solver: SolverStiff, TEnd: 1, Unit: 100}.Validate()
	if err == nil {
		t.Fatal("stiff solver on SSA validated")
	}
	if fs := fieldOf(err); len(fs) != 1 || fs[0] != "Solver" {
		t.Fatalf("fields = %v, want [Solver]", fs)
	}
	// Garbage tolerances are rejected, not silently remapped to defaults.
	cfg := Config{TEnd: 1}
	cfg.ODE.RelTol = -1
	cfg.ODE.AbsTol = math.NaN()
	err = cfg.Validate()
	if err == nil {
		t.Fatal("negative RelTol validated")
	}
	got := fieldOf(err)
	want := map[string]bool{"ODE.RelTol": true, "ODE.AbsTol": true}
	for _, f := range got {
		if !want[f] {
			t.Fatalf("unexpected invalid field %q (all: %v)", f, got)
		}
		delete(want, f)
	}
	if len(want) != 0 {
		t.Fatalf("missing invalid fields %v", want)
	}
	// MinStep above MaxStep is inconsistent.
	cfg = Config{TEnd: 1}
	cfg.ODE.MinStep = 1
	cfg.ODE.MaxStep = 0.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("MinStep > MaxStep validated")
	}
	// Unknown numeric solver.
	if err := (Config{TEnd: 1, Solver: Solver(17)}).Validate(); err == nil {
		t.Fatal("unknown solver validated")
	}
	// The happy path still validates.
	if err := (Config{TEnd: 1, Solver: SolverStiff}).Validate(); err != nil {
		t.Fatalf("stiff ODE config rejected: %v", err)
	}
}

// TestSolverEquivalence pins explicit-vs-stiff agreement on the fast/slow
// network at default tolerances: same final state within 10x RelTol.
func TestSolverEquivalence(t *testing.T) {
	n := stiffNet(t)
	finals := map[Solver][]float64{}
	for _, s := range []Solver{SolverExplicit, SolverStiff, SolverAuto} {
		tr, err := Run(context.Background(), n, Config{
			Method: ODE, Solver: s, TEnd: 20, Rates: Rates{Fast: 1000, Slow: 1},
		})
		if err != nil {
			t.Fatalf("solver %v: %v", s, err)
		}
		finals[s] = tr.Rows[len(tr.Rows)-1]
	}
	relTol := 1e-6 // the documented default
	for _, s := range []Solver{SolverStiff, SolverAuto} {
		for i := range finals[s] {
			ref := finals[SolverExplicit][i]
			if diff := math.Abs(finals[s][i] - ref); diff > 10*relTol*(1+math.Abs(ref)) {
				t.Errorf("solver %v species %d: %g vs explicit %g (|Δ|=%g)",
					s, i, finals[s][i], ref, diff)
			}
		}
	}
}

// TestSolverStiffStats checks the ODEStats transport: a forced stiff run
// reports its solver and nonzero Jacobian/factorization effort on SimEnd.
func TestSolverStiffStats(t *testing.T) {
	n := stiffNet(t)
	var capt simEndCapture
	_, err := Run(context.Background(), n, Config{
		Method: ODE, Solver: SolverStiff, TEnd: 20,
		Rates: Rates{Fast: 1000, Slow: 1}, Obs: &capt,
	})
	if err != nil {
		t.Fatal(err)
	}
	od := capt.end.ODE
	if od.Solver != "stiff" || od.Switched || od.StiffSteps == 0 ||
		od.JacEvals == 0 || od.Factorizations == 0 || od.Solves == 0 {
		t.Fatalf("stiff ODEStats = %+v", od)
	}
	if capt.end.Sim != "ode" || capt.end.T != 20 {
		t.Fatalf("SimEnd = %+v", capt.end)
	}
}

// TestSolverAutoSwitches drives the auto path into its stiffness handoff on
// a harshly stiff network and checks the decision is observable: the
// handoff falls in the first 1% of the horizon, once the fast equilibrium
// has formed, and carries its evidence.
func TestSolverAutoSwitches(t *testing.T) {
	n := stiffNet(t)
	var capt simEndCapture
	tr, err := Run(context.Background(), n, Config{
		Method: ODE, TEnd: 50, Rates: Rates{Fast: 2e5, Slow: 1}, Obs: &capt,
	})
	if err != nil {
		t.Fatal(err)
	}
	od := capt.end.ODE
	if od.Solver != "auto" {
		t.Fatalf("solver = %q, want auto", od.Solver)
	}
	if !od.Switched {
		t.Fatalf("auto run never switched on Fast=2e5: %+v", od)
	}
	if od.SwitchT <= 0 || od.SwitchT > 0.5 {
		t.Fatalf("switch at t=%g, want inside (0, 0.5]", od.SwitchT)
	}
	if od.HRho <= 0 || od.WorkRatio <= 1 {
		t.Fatalf("handoff evidence h·ρ %g, work ratio %g; want a ratio above 1", od.HRho, od.WorkRatio)
	}
	if od.StiffSteps == 0 || od.JacEvals == 0 {
		t.Fatalf("stiff effort not recorded: %+v", od)
	}
	if got := tr.End(); got != 50 {
		t.Fatalf("trace ends at %g, want 50", got)
	}
	// Conservation: A+B+C is invariant; the handoff must not leak mass.
	last := tr.Rows[len(tr.Rows)-1]
	if total := last[0] + last[1] + last[2]; math.Abs(total-1) > 1e-4 {
		t.Fatalf("mass not conserved across handoff: %g", total)
	}
	// Everything should have drained to C by t=50.
	if last[2] < 0.99 {
		t.Fatalf("C(50) = %g, want ~1", last[2])
	}
}

// TestSolverExplicitUnchanged pins that a forced explicit run reports no
// stiff machinery: the pre-solver behaviour is fully preserved.
func TestSolverExplicitUnchanged(t *testing.T) {
	n := stiffNet(t)
	var capt simEndCapture
	_, err := Run(context.Background(), n, Config{
		Method: ODE, Solver: SolverExplicit, TEnd: 5, Obs: &capt,
	})
	if err != nil {
		t.Fatal(err)
	}
	od := capt.end.ODE
	if od.Solver != "explicit" || od.Switched || od.StiffSteps != 0 ||
		od.JacEvals != 0 || od.Factorizations != 0 || od.Solves != 0 ||
		od.HRho != 0 || od.WorkRatio != 0 {
		t.Fatalf("explicit ODEStats = %+v", od)
	}
}
