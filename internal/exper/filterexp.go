package exper

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/sfg"
	"repro/internal/sim"
	"repro/internal/synth"
)

func init() {
	register(Experiment{
		ID:    "E3",
		Title: "Two-tap moving-average filter, molecular vs golden (paper's DSP figure)",
		Tags:  []string{TagScalar},
		Run: func(ctx context.Context, cfg Config) (*Result, error) {
			return runFilterExp(ctx, cfg, "E3", 2)
		},
	})
	register(Experiment{
		ID:    "E4",
		Title: "Four-tap moving-average filter, molecular vs golden",
		Tags:  []string{TagScalar},
		Run: func(ctx context.Context, cfg Config) (*Result, error) {
			return runFilterExp(ctx, cfg, "E4", 4)
		},
	})
	register(Experiment{
		ID:    "E6",
		Title: "Rate-independence: filter error vs rate ratio, per-reaction jitter, amplitude",
		Tags:  []string{TagGrid},
		Run:   runE6,
	})
}

// filterStream is the shared input stream for the filter experiments: a
// step, a gap and an impulse, exercising transients in both directions.
func filterStream(n int) []float64 {
	base := []float64{1, 1, 0, 2, 1, 0.5, 1.5, 1}
	out := make([]float64, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out
}

func runFilterExp(ctx context.Context, cfg Config, id string, taps int) (*Result, error) {
	res := &Result{
		ID:     id,
		Title:  fmt.Sprintf("%d-tap moving-average filter", taps),
		Header: []string{"cycle", "x[k]", "golden y[k]", "molecular y[k]", "abs err"},
	}
	nCycles := 8
	tEnd := 420.0
	ratio := 1000.0
	if cfg.Quick {
		nCycles = 4
		tEnd = 220
		ratio = 500
	}
	g, err := sfg.MovingAverage(taps)
	if err != nil {
		return nil, err
	}
	x := filterStream(nCycles)
	golden, err := g.Run(map[string][]float64{"x": x})
	if err != nil {
		return nil, err
	}
	cp, err := synth.Compile(g, "f")
	if err != nil {
		return nil, err
	}
	cp.Obs = cfg.observer()
	tr, outs, err := cp.RunContext(ctx, sim.Rates{Fast: ratio, Slow: 1}, tEnd, map[string][]float64{"x": x}, nCycles)
	if err != nil {
		return nil, err
	}
	se, err := analysis.CompareStreams(outs["y"], golden["y"])
	if err != nil {
		return nil, err
	}
	for k := 0; k < nCycles; k++ {
		diff := outs["y"][k] - golden["y"][k]
		if diff < 0 {
			diff = -diff
		}
		res.Rows = append(res.Rows, []string{
			itoa(k), f3(x[k]), f4(golden["y"][k]), f4(outs["y"][k]), f4(diff),
		})
	}
	fig, err := tr.ASCIIPlot(100, 12, cp.OutSinks["y"], cp.Circuit.Clock.R)
	if err != nil {
		return nil, err
	}
	res.Figure = fig
	cost := analysis.CostOf(cp.Circuit.Net)
	res.Notes = append(res.Notes,
		fmt.Sprintf("mean error %s, max error %s over %d cycles; circuit: %d species, %d reactions",
			f4(se.Mean), f4(se.Max), se.N, cost.Species, cost.Reactions))
	return res, nil
}

func runE6(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E6",
		Title: "Rate-independence of the 2-tap filter",
		Header: []string{
			"kfast/kslow", "jitter spread", "amplitude", "mean err", "max err",
		},
	}
	type point struct {
		ratio  float64
		spread float64
		amp    float64
	}
	points := []point{
		{10, 1, 1}, {30, 1, 1}, {100, 1, 1}, {300, 1, 1}, {1000, 1, 1},
		{100, 2, 1}, {1000, 2, 1}, {1000, 3, 1},
		{1000, 1, 0.25}, {1000, 1, 2},
	}
	nCycles := 4
	tEnd := 260.0
	if cfg.Quick {
		points = []point{{30, 1, 1}, {300, 1, 1}, {300, 2, 1}}
		tEnd = 200
	}
	// One job per sweep point. Each job compiles its own circuit: Compile is
	// cheap, and the compiled network is mutated by Jitter and the injection
	// events, so sharing it across workers is off the table. Jitter keeps
	// the historical cfg.Seed+ratio seed, so the table matches the
	// pre-parallel sequential sweep exactly.
	rows, err := batch.Map(ctx, len(points), func(ctx context.Context, i int) ([]string, error) {
		p := points[i]
		// Low rate ratios stretch every phase (indicator thresholds are
		// relative to kslow/kfast), so give slow configurations more time.
		pointEnd := tEnd
		if p.ratio < 100 {
			pointEnd = tEnd * 2.5
		}
		g, err := sfg.MovingAverage(2)
		if err != nil {
			return nil, err
		}
		x := filterStream(nCycles)
		for k := range x {
			x[k] *= p.amp
		}
		golden, err := g.Run(map[string][]float64{"x": x})
		if err != nil {
			return nil, err
		}
		cp, err := synth.Compile(g, "f")
		if err != nil {
			return nil, err
		}
		events, err := cp.StreamConfig(map[string][]float64{"x": x})
		if err != nil {
			return nil, err
		}
		net, err := analysis.Jitter(cp.Circuit.Net, p.spread, cfg.Seed+int64(p.ratio))
		if err != nil {
			return nil, err
		}
		tr, err := sim.Run(ctx, net, sim.Config{
			Rates: sim.Rates{Fast: p.ratio, Slow: 1}, TEnd: pointEnd, Events: events, Obs: cfg.observer(),
		})
		if err != nil {
			return nil, err
		}
		vals, err := cp.Circuit.SinkPerCycle(tr, cp.OutSinks["y"])
		if err != nil {
			return nil, err
		}
		if len(vals) < nCycles {
			// Below a working rate ratio the clock phases smear into each
			// other and the oscillation collapses — itself a data point of
			// the robustness sweep.
			return []string{
				f1(p.ratio), f1(p.spread), f3(p.amp),
				fmt.Sprintf("clock collapsed after %d cycles", len(vals)), "-",
			}, nil
		}
		se, err := analysis.CompareStreams(vals[:nCycles], golden["y"])
		if err != nil {
			return nil, err
		}
		return []string{
			f1(p.ratio), f1(p.spread), f3(p.amp), f4(se.Mean), f4(se.Max),
		}, nil
	}, cfg.batchOpts())
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.Notes = append(res.Notes,
		"headline claim: error falls with kfast/kslow and is essentially unaffected by per-reaction jitter within a category; below ~30 the clock itself stops functioning",
		"the amplitude rows show the clocked scheme is insensitive to signal magnitude — the clock heartbeat keeps the absence-indicator gates sharp even for small signals, unlike the clockless chains (package async)")
	return res, nil
}
