package server

import (
	"strings"
	"testing"

	"repro/internal/obs/span"
)

// stiffCRN is the fast-equilibrium-with-slow-drain network used across the
// solver tests; how punishing it is for an explicit method scales with the
// request's fast rate.
const stiffCRN = "init A = 1\nA -> B : fast\nB -> A : fast\nB -> C : slow"

// TestSimulateSolverValidation: the solver field is validated at the edge
// (unknown names), scoped to CRN mode, and cross-checked against the method
// by sim.Config validation with a field-level diagnostic.
func TestSimulateSolverValidation(t *testing.T) {
	s := New(Config{})

	rec := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		CRN: stiffCRN, TEnd: 5, Solver: "bogus",
	})
	if rec.Code != 400 || decode[errorBody](t, rec).Error.Code != CodeInvalidRequest {
		t.Errorf("unknown solver: status %d body %s", rec.Code, rec.Body.String())
	}

	rec = do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		Experiment: "E1", Solver: "stiff",
	})
	if rec.Code != 400 || decode[errorBody](t, rec).Error.Code != CodeInvalidRequest {
		t.Errorf("solver in experiment mode: status %d body %s", rec.Code, rec.Body.String())
	}

	rec = do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		CRN: stiffCRN, TEnd: 5, Method: "ssa", Solver: "stiff", Seed: 1,
	})
	body := decode[errorBody](t, rec)
	if rec.Code != 400 || body.Error.Code != CodeInvalidRequest {
		t.Fatalf("stiff solver on ssa: status %d body %s", rec.Code, rec.Body.String())
	}
	if len(body.Error.Fields) != 1 || body.Error.Fields[0].Field != "Solver" {
		t.Errorf("fields = %+v, want one diagnostic on Solver", body.Error.Fields)
	}

	// The aliases parse and run like their canonical names.
	for _, alias := range []string{"rosenbrock", "dp5", "auto"} {
		rec = do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
			CRN: stiffCRN, TEnd: 5, Solver: alias,
		})
		if rec.Code != 200 {
			t.Errorf("solver alias %q: status %d body %s", alias, rec.Code, rec.Body.String())
		}
	}
}

// TestSimulateStiffnessEnvelope: when the explicit integrator's step size
// collapses under stiffness, the opaque sim failure becomes a structured 422
// with code "stiffness" pointing at the solver knob — and following the hint
// (dropping the forced explicit solver) makes the identical request succeed.
func TestSimulateStiffnessEnvelope(t *testing.T) {
	s := New(Config{})
	// A = B starts on the fast manifold, so the stiff method needs no
	// transient resolution; the long horizon puts the explicit method's
	// stability-limited step (~3/Fast) below its MinStep (t_end·1e-14),
	// collapsing it within a handful of rejections.
	req := SimulateRequest{
		CRN:  "init A = 1\ninit B = 1\nA -> B : fast\nB -> A : fast\nB -> C : slow",
		TEnd: 1e6, Fast: 1e9, Slow: 1, Solver: "explicit",
	}
	rec := do(t, s.Handler(), "POST", "/v1/simulate", req)
	body := decode[errorBody](t, rec)
	if rec.Code != 422 || body.Error.Code != CodeStiffness {
		t.Fatalf("explicit on harshly stiff system: status %d body %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(body.Error.Message, `"solver":"stiff"`) {
		t.Errorf("message does not point at the solver knob: %q", body.Error.Message)
	}
	if len(body.Error.Fields) != 1 || body.Error.Fields[0].Field != "solver" {
		t.Errorf("fields = %+v, want one diagnostic on solver", body.Error.Fields)
	}

	// The hinted fix works: auto (the default) switches and completes.
	req.Solver = ""
	if rec := do(t, s.Handler(), "POST", "/v1/simulate", req); rec.Code != 200 {
		t.Fatalf("auto on the same system: status %d body %s", rec.Code, rec.Body.String())
	}
}

// TestSimulateSolverCacheKey: the solver participates in the response cache
// key — explicit and stiff trajectories agree only to tolerance, so the same
// CRN under a different solver must be a fresh miss, while repeating a solver
// hits.
func TestSimulateSolverCacheKey(t *testing.T) {
	s := New(Config{})
	var caches []string
	for _, solver := range []string{"explicit", "stiff", "auto", "explicit"} {
		rec := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
			CRN: stiffCRN, TEnd: 10, Fast: 500, Slow: 1, Solver: solver,
		})
		if rec.Code != 200 {
			t.Fatalf("solver %q: status %d body %s", solver, rec.Code, rec.Body.String())
		}
		caches = append(caches, rec.Header().Get("X-Cache"))
	}
	if got, want := strings.Join(caches, " "), "miss miss miss hit"; got != want {
		t.Fatalf("X-Cache sequence %q, want %q", got, want)
	}
}

// TestSimulateStiffObservability is the end-to-end proof that a stiff run is
// visible from the outside: the ode_stiff_* metric families appear on
// /metrics and the solver decision lands on the request's trace in
// /debug/tracez.
func TestSimulateStiffObservability(t *testing.T) {
	s := New(Config{})

	// A forced stiff run, then an auto run harsh enough to switch.
	rec := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		CRN: stiffCRN, TEnd: 20, Fast: 1000, Slow: 1, Solver: "stiff",
	})
	if rec.Code != 200 {
		t.Fatalf("stiff run: status %d body %s", rec.Code, rec.Body.String())
	}
	tid, _, err := span.ParseTraceparent(rec.Header().Get("traceparent"))
	if err != nil {
		t.Fatal(err)
	}
	rec = do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		CRN: stiffCRN, TEnd: 50, Fast: 2e5, Slow: 1,
	})
	if rec.Code != 200 {
		t.Fatalf("auto run: status %d body %s", rec.Code, rec.Body.String())
	}
	autoTID, _, err := span.ParseTraceparent(rec.Header().Get("traceparent"))
	if err != nil {
		t.Fatal(err)
	}

	metrics := do(t, s.Handler(), "GET", "/metrics", nil)
	if metrics.Code != 200 {
		t.Fatalf("metrics status %d", metrics.Code)
	}
	mbody := metrics.Body.String()
	for _, want := range []string{
		`ode_solver_runs_total{solver="stiff"} 1`,
		`ode_solver_runs_total{solver="auto"} 1`,
		"ode_stiff_switches_total 1",
		"ode_stiff_switch_t ",
		"ode_stiff_steps_total",
		"ode_stiff_jacobians_total",
		"ode_stiff_factorizations_total",
		"ode_stiff_solves_total",
	} {
		if !strings.Contains(mbody, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	otlp := do(t, s.Handler(), "GET", "/debug/tracez?trace="+tid.String(), nil)
	if otlp.Code != 200 {
		t.Fatalf("tracez status %d: %s", otlp.Code, otlp.Body.String())
	}
	tbody := otlp.Body.String()
	for _, want := range []string{"ode.solver", "stiff", "ode.jac_evals", "ode.factorizations"} {
		if !strings.Contains(tbody, want) {
			t.Errorf("trace export missing %q", want)
		}
	}
	// The auto run's span carries the handoff and its evidence.
	otlp = do(t, s.Handler(), "GET", "/debug/tracez?trace="+autoTID.String(), nil)
	for _, want := range []string{"ode.switch_t", "ode.h_rho", "ode.work_ratio"} {
		if !strings.Contains(otlp.Body.String(), want) {
			t.Errorf("auto trace export missing %q", want)
		}
	}
}
