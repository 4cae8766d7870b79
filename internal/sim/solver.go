package sim

import (
	"fmt"
	"strings"
)

// Solver selects the ODE integration strategy of a Method == ODE run. The
// zero value is SolverAuto: start with the explicit Dormand–Prince 5(4)
// method and hand off to the stiff Rosenbrock-W integrator once the
// explicit step is pinned by stability rather than accuracy and the stiff
// method is predicted cheaper — the regime the paper's fast ≫ slow rate
// dichotomy produces from fast/slow ratios of a few hundred up. Runs that
// never pass the test integrate identically to SolverExplicit.
type Solver uint8

const (
	// SolverAuto starts explicit and switches to the stiff integrator when
	// ode.Integrate's stiffness test passes: h·ρ (step times the dominant-
	// eigenvalue estimate DP5 yields for free) sits at the stability edge
	// for a stretch of steps, and 6 evaluations per explicit step cost
	// more per unit time than a priced Rosenbrock step; or when the
	// explicit step size underflows. On the paper's designs at t_end 10 it
	// stays explicit up to fast/slow ≈ 300–900 and hands off within the
	// first 1% of the horizon above (DESIGN.md, "Automatic switching").
	SolverAuto Solver = iota
	// SolverExplicit forces adaptive Dormand–Prince 5(4) — the pre-solver
	// behaviour — and fails with ode.ErrMinStep where the problem is too
	// stiff for it.
	SolverExplicit
	// SolverStiff forces the Rosenbrock-W (ode23s) integrator with the
	// analytic sparse Jacobian from the compiled kernel.
	SolverStiff
)

var solverNames = [...]string{SolverAuto: "auto", SolverExplicit: "explicit", SolverStiff: "stiff"}

// String returns the canonical lower-case name ("auto", "explicit", "stiff").
func (s Solver) String() string {
	if int(s) < len(solverNames) {
		return solverNames[s]
	}
	return fmt.Sprintf("solver(%d)", uint8(s))
}

// Solvers returns every valid solver in declaration order.
func Solvers() []Solver { return []Solver{SolverAuto, SolverExplicit, SolverStiff} }

// SolverNames returns the canonical solver names in declaration order —
// ready for CLI usage strings.
func SolverNames() []string {
	out := make([]string, 0, len(solverNames))
	for _, s := range Solvers() {
		out = append(out, s.String())
	}
	return out
}

// ParseSolver maps a user-facing solver name (case-insensitive, with the
// aliases "dp5"/"rk45" for explicit and "rosenbrock"/"ros23"/"implicit" for
// stiff; the empty string selects auto) to its Solver. Unknown names produce
// an error listing the valid choices, so CLIs can surface it verbatim.
func ParseSolver(s string) (Solver, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return SolverAuto, nil
	case "explicit", "dp5", "rk45":
		return SolverExplicit, nil
	case "stiff", "rosenbrock", "ros23", "implicit":
		return SolverStiff, nil
	}
	return SolverAuto, fmt.Errorf("sim: unknown solver %q (valid solvers: %s)",
		s, strings.Join(SolverNames(), ", "))
}
