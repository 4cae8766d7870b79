// Root benchmark harness: one BenchmarkE<n> per reproduction experiment
// (the paper's tables and figures; see DESIGN.md), each running the
// experiment's quick configuration, plus micro-benchmarks of the simulation
// substrates. EXPERIMENTS.md numbers come from cmd/molbench in full mode;
// these benchmarks track the cost of regenerating them.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/async"
	"repro/internal/batch"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/crn"
	"repro/internal/exper"
	"repro/internal/obs"
	"repro/internal/phases"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sim/kernel"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := exper.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(context.Background(), exper.Config{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE1Clock(b *testing.B)              { benchExperiment(b, "E1") }
func BenchmarkE2DelayChain(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3MovAvg2(b *testing.B)            { benchExperiment(b, "E3") }
func BenchmarkE4MovAvg4(b *testing.B)            { benchExperiment(b, "E4") }
func BenchmarkE5Counter(b *testing.B)            { benchExperiment(b, "E5") }
func BenchmarkE6Robustness(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7SyncVsAsync(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8Stochastic(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE9DSD(b *testing.B)                { benchExperiment(b, "E9") }
func BenchmarkE10Scaling(b *testing.B)           { benchExperiment(b, "E10") }
func BenchmarkE11Ablations(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12StochasticCounter(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13FreqResponse(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14Modules(b *testing.B)           { benchExperiment(b, "E14") }

// buildClockNet constructs the standalone molecular clock network used by
// the substrate micro-benchmarks.
func buildClockNet(tb testing.TB) *crn.Network {
	tb.Helper()
	n := crn.NewNetwork()
	s := phases.NewScheme(n, "ph")
	if _, err := clock.Add(s, "clk", 1); err != nil {
		tb.Fatal(err)
	}
	if err := s.Build(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkDerivEval measures one mass-action derivative evaluation of the
// clock network — the inner loop of every deterministic experiment.
func BenchmarkDerivEval(b *testing.B) {
	n := buildClockNet(b)
	f := sim.Deriv(n, sim.DefaultRates())
	y := n.Init()
	dydt := make([]float64, len(y))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(0, y, dydt)
	}
}

// BenchmarkODEClockCycle measures integrating the clock through roughly one
// oscillation period.
func BenchmarkODEClockCycle(b *testing.B) {
	n := buildClockNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), n, sim.Config{Rates: sim.Rates{Fast: 300, Slow: 1}, TEnd: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkODEClockCycleInstrumented is BenchmarkODEClockCycle with the full
// observability stack attached — a RegistryObserver plus the clock's edge and
// phase watchers. The observer sees only the run's start and end, so the
// delta against the unobserved benchmark is the cost of the watchers, which
// read the state at every accepted step.
func BenchmarkODEClockCycleInstrumented(b *testing.B) {
	n := crn.NewNetwork()
	s := phases.NewScheme(n, "ph")
	clk, err := clock.Add(s, "clk", 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Build(); err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{
			Rates:    sim.Rates{Fast: 300, Slow: 1},
			TEnd:     20,
			Obs:      obs.NewRegistryObserver(reg),
			Watchers: []obs.Watcher{clk.Watch(), clk.WatchPhases()},
		}
		if _, err := sim.Run(context.Background(), n, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSAClock measures the stochastic simulator on the clock at 100
// molecules per unit.
func BenchmarkSSAClock(b *testing.B) {
	n := buildClockNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), n, sim.Config{Method: sim.SSA,
			Rates: sim.Rates{Fast: 300, Slow: 1}, TEnd: 20, Unit: 100, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSAClockObserved is BenchmarkSSAClock with only the
// RegistryObserver a served /v1/simulate request attaches. The observer sees
// the run's start and end, never a firing, so the run takes the same tight
// loop and must cost the same within noise; scripts/observe_cost.sh runs
// the two in alternating pairs.
func BenchmarkSSAClockObserved(b *testing.B) {
	n := buildClockNet(b)
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), n, sim.Config{Method: sim.SSA,
			Rates: sim.Rates{Fast: 300, Slow: 1}, TEnd: 20, Unit: 100, Seed: int64(i + 1),
			Obs: obs.NewRegistryObserver(reg),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSAClockInstrumented is BenchmarkSSAClock with the observability
// stack of a watched sweep point attached — a RegistryObserver plus the
// clock's edge and phase watchers. The watchers carry per-run state, so the
// run is a hooked one-lane block: the engine takes its rare path after
// every firing and calls the watchers after every sample. The delta against
// BenchmarkSSAClock is the cost of the hooks; an observer alone, as on a
// served /v1/simulate request, does not hook the run.
func BenchmarkSSAClockInstrumented(b *testing.B) {
	n := crn.NewNetwork()
	s := phases.NewScheme(n, "ph")
	clk, err := clock.Add(s, "clk", 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Build(); err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{
			Method: sim.SSA, Rates: sim.Rates{Fast: 300, Slow: 1},
			TEnd: 20, Unit: 100, Seed: int64(i + 1),
			Obs:      obs.NewRegistryObserver(reg),
			Watchers: []obs.Watcher{clk.Watch(), clk.WatchPhases()},
		}
		if _, err := sim.Run(context.Background(), n, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// buildRingNet constructs a clocked k-register ring shifter with core's
// gated-transfer machinery. At k=8 the finalized network has 458 reactions —
// the circuit class the SSA propensity index is sized for (the paper's
// synchronous designs compile to CRNs with hundreds of reactions).
func buildRingNet(tb testing.TB, k int) *crn.Network {
	tb.Helper()
	c := core.New("ring")
	regs := make([]*core.Register, k)
	for i := range regs {
		init := 0.0
		if i == 0 {
			init = 1
		}
		r, err := c.NewRegister(fmt.Sprintf("d%d", i), init)
		if err != nil {
			tb.Fatal(err)
		}
		regs[i] = r
	}
	for i := range regs {
		if err := c.Gain(regs[i].Q, regs[(i+1)%k].NS, 1, 1); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		tb.Fatal(err)
	}
	return c.Net
}

// BenchmarkSSARing measures the stochastic simulator on a 458-reaction
// clocked ring — the benchmark BENCH_PR5.json tracks for selection-index
// regressions. Keep the configuration stable across PRs so the numbers stay
// comparable.
func BenchmarkSSARing(b *testing.B) {
	n := buildRingNet(b, 8)
	if nr := n.NumReactions(); nr < 200 {
		b.Fatalf("ring net has %d reactions, want >= 200", nr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), n, sim.Config{
			Method: sim.SSA, Rates: sim.Rates{Fast: 300, Slow: 1},
			TEnd: 10, Unit: 50, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEnsembleRing measures the SoA ensemble engine on the 458-reaction
// ring: one RunMany batch of 16 replicates per iteration, reported per run
// (the ns/run metric divides by the replicate count). The finals-only
// variant is the sweep configuration BENCH_PR7.json gates on; the trace
// variant keeps full trajectories for comparison with BenchmarkSSARing.
func benchEnsembleRing(b *testing.B, finalsOnly bool) {
	n := buildRingNet(b, 8)
	const runs = 16
	var stats kernel.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ens, err := sim.RunMany(context.Background(), n, sim.BatchConfig{
			Base: sim.Config{
				Method: sim.SSA, Rates: sim.Rates{Fast: 300, Slow: 1},
				TEnd: 10, Unit: 50, Seed: int64(i + 1),
				Kernel: &stats,
			},
			Runs:       runs,
			FinalsOnly: finalsOnly,
		})
		if err != nil {
			b.Fatal(err)
		}
		if ens.OK() != runs {
			b.Fatal(ens.Err())
		}
	}
	b.StopTimer()
	if stats.LaneSlots > 0 {
		b.ReportMetric(stats.Occupancy(), "occupancy")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/runs, "ns/run")
}

func BenchmarkEnsembleRing(b *testing.B)           { benchEnsembleRing(b, false) }
func BenchmarkEnsembleRingFinalsOnly(b *testing.B) { benchEnsembleRing(b, true) }

// BenchmarkSSARingSweepPerRun is the one-run-at-a-time reference for the
// ensemble gate: the same 16-run ring sweep executed as sequential sim.Run
// calls (one-lane blocks, each compiling the network) with the same derived
// seeds, reported per run like the ensemble benchmarks.
func BenchmarkSSARingSweepPerRun(b *testing.B) {
	n := buildRingNet(b, 8)
	const runs = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < runs; j++ {
			if _, err := sim.Run(context.Background(), n, sim.Config{
				Method: sim.SSA, Rates: sim.Rates{Fast: 300, Slow: 1},
				TEnd: 10, Unit: 50, Seed: batch.DeriveSeed(int64(i+1), j),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/runs, "ns/run")
}

// benchBatchEnsemble measures an SSA ensemble of the clock fanned over a
// batch pool with the given worker count; the 1-vs-NumCPU pair exposes the
// pool's speedup on a multi-core host (on one core, its overhead).
func benchBatchEnsemble(b *testing.B, workers int) {
	n := buildClockNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := batch.Map(context.Background(), 8, func(ctx context.Context, j int) (float64, error) {
			tr, err := sim.Run(ctx, n, sim.Config{
				Method: sim.SSA, Rates: sim.Rates{Fast: 300, Slow: 1},
				TEnd: 20, Unit: 100, Seed: batch.DeriveSeed(int64(i+1), j),
			})
			if err != nil {
				return 0, err
			}
			return tr.Final("clk.CR"), nil
		}, batch.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchEnsembleSeq(b *testing.B)      { benchBatchEnsemble(b, 1) }
func BenchmarkBatchEnsembleParallel(b *testing.B) { benchBatchEnsemble(b, 0) }

// benchServeSimulate measures one POST /v1/simulate of the clock network
// through the in-process server handler — decode, parse, simulate and encode
// with cacheSize entries of response cache (negative disables it, so every
// request pays the full path).
func benchServeSimulate(b *testing.B, cacheSize int) {
	s := server.New(server.Config{CacheSize: cacheSize})
	h := s.Handler()
	body, err := json.Marshal(server.SimulateRequest{
		CRN: buildClockNet(b).String(), TEnd: 20, Fast: 300, Slow: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

func BenchmarkServeSimulate(b *testing.B)       { benchServeSimulate(b, -1) }
func BenchmarkServeSimulateCached(b *testing.B) { benchServeSimulate(b, 128) }

// odeEndCapture records each run's closing SimEnd event (overwritten per
// iteration). It is attached to every leg of the solver comparison so the
// instrumentation cost is identical across them.
type odeEndCapture struct {
	obs.Base
	end obs.SimEnd
}

func (c *odeEndCapture) OnSimEnd(e obs.SimEnd) { c.end = e }

// benchODE runs one deterministic simulation per iteration under one solver
// at the default tolerances, and reports the integrator's effort per run:
// accepted steps, rejections, derivative evaluations, Jacobian refills, LU
// factorizations, the stiff integrator's accepted steps and, for an auto
// run that handed off, the switch time. The counts repeat exactly from run
// to run.
func benchODE(b *testing.B, n *crn.Network, fast, tEnd float64, solver sim.Solver) {
	capt := &odeEndCapture{}
	cfg := sim.Config{
		Method: sim.ODE, Solver: solver,
		Rates: sim.Rates{Fast: fast, Slow: 1}, TEnd: tEnd,
		Obs: capt,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), n, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	od := capt.end.ODE
	b.ReportMetric(float64(capt.end.Steps), "steps/op")
	b.ReportMetric(float64(od.Rejected), "rej/op")
	b.ReportMetric(float64(od.Evals), "evals/op")
	b.ReportMetric(float64(od.JacEvals), "jac/op")
	b.ReportMetric(float64(od.Factorizations), "fact/op")
	b.ReportMetric(float64(od.StiffSteps), "stiffsteps/op")
	if od.Switched {
		b.ReportMetric(od.SwitchT, "switch_t")
	}
}

// The 458-reaction clocked ring under each solver is the comparison
// BENCH_PR10.json gates on: the stiff leg must beat the explicit leg by
// >= 3x wall clock with >= 5x fewer derivative evaluations.
//
// Fast/slow is 30000/1 — the stability-limited regime of the paper's rate
// dichotomy, where the explicit method's step is pinned at ~3/Fast while the
// solution only moves on the slow (clock-period) timescale. At the SSA ring's
// 300/1 the ODE leg is accuracy-limited and an explicit high-order method is
// the right tool; the solver comparison is only meaningful where stiffness,
// not accuracy, sets the step.
func benchODERing(b *testing.B, solver sim.Solver) {
	benchODE(b, buildRingNet(b, 8), 30000, 10, solver)
}

func BenchmarkODERingExplicit(b *testing.B) { benchODERing(b, sim.SolverExplicit) }
func BenchmarkODERingStiff(b *testing.B)    { benchODERing(b, sim.SolverStiff) }
func BenchmarkODERingAuto(b *testing.B)     { benchODERing(b, sim.SolverAuto) }

// BenchmarkSolverEffort runs E1's clock and E8's delay chain under each
// solver at the experiments' own rates and horizons, and the ring at the
// accuracy-limited fast/slow = 300. With the ring legs above it regenerates
// EXPERIMENTS.md's solver-effort table.
func BenchmarkSolverEffort(b *testing.B) {
	chain := crn.NewNetwork()
	ch, err := async.NewChain(chain, "d", 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := chain.SetInit(ch.Input, 1); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		net        *crn.Network
		fast, tEnd float64
	}{
		{"E1clock", buildClockNet(b), 1000, 300},
		{"E8chain", chain, 500, 150},
		{"ring300", buildRingNet(b, 8), 300, 10},
	} {
		for _, s := range []sim.Solver{sim.SolverExplicit, sim.SolverStiff, sim.SolverAuto} {
			b.Run(c.name+"/"+s.String(), func(b *testing.B) { benchODE(b, c.net, c.fast, c.tEnd, s) })
		}
	}
}

// BenchmarkParse measures the .crn text format round trip on the clock
// network.
func BenchmarkParse(b *testing.B) {
	src := buildClockNet(b).String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crn.ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}
