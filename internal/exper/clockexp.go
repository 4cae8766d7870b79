package exper

import (
	"context"
	"fmt"

	"repro/internal/async"
	"repro/internal/clock"
	"repro/internal/crn"
	"repro/internal/phases"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Molecular clock: sustained tri-phase oscillation (paper's clock figure)",
		Tags:  []string{TagGrid},
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "Two-delay-element transfer (companion abstract Fig. 1(c))",
		Tags:  []string{TagScalar},
		Run:   runE2,
	})
}

func runE1(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:     "E1",
		Title:  "Molecular clock: sustained tri-phase oscillation",
		Header: []string{"kfast/kslow", "period", "jitter", "peakR", "peakG", "peakB", "overlapRG", "cycles"},
	}
	ratios := []float64{100, 1000}
	tEnd := 300.0
	if cfg.Quick {
		ratios = []float64{300}
		tEnd = 150
	}
	// The ratio sweep is one RunMany batch over a single clock network: the
	// dependency structure compiles once, each ratio binds its own rate
	// vector, and the pool fans the points out without changing the table.
	n := crn.NewNetwork()
	s := phases.NewScheme(n, "ph")
	ck, err := clock.Add(s, "clk", 1)
	if err != nil {
		return nil, err
	}
	if err := s.Build(); err != nil {
		return nil, err
	}
	ens, err := sim.RunMany(ctx, n, sim.BatchConfig{
		Base: sim.Config{TEnd: tEnd, Seed: cfg.Seed},
		Runs: len(ratios),
		Configure: func(i int, c *sim.Config) {
			c.Rates = sim.Rates{Fast: ratios[i], Slow: 1}
		},
		Lanes:   cfg.Lanes,
		Workers: cfg.workers(),
		Metrics: cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if err := ens.Err(); err != nil {
		return nil, err
	}
	for i, ratio := range ratios {
		tr := ens.Traces[i]
		st, err := clock.Measure(tr, ck)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			f1(ratio), f3(st.Period), f4(st.Regularity),
			f3(st.PeakR), f3(st.PeakG), f3(st.PeakB), f3(st.OverlapRG), itoa(st.Cycles),
		})
		if i == len(ratios)-1 {
			fig, err := tr.ASCIIPlot(100, 12, ck.R, ck.G, ck.B)
			if err != nil {
				return nil, err
			}
			res.Figure = fig
		}
	}
	res.Notes = append(res.Notes,
		"paper reports sustained oscillation with mutually exclusive phases; shape criterion: >=10 regular cycles, peaks near the heartbeat, low pairwise overlap")
	return res, nil
}

func runE2(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:     "E2",
		Title:  "Two-delay-element self-timed transfer",
		Header: []string{"species", "half-rise time", "peak"},
	}
	ratio := 1000.0
	tEnd := 150.0
	if cfg.Quick {
		ratio = 500
		tEnd = 120
	}
	net := crn.NewNetwork()
	ch, err := async.NewChain(net, "d", 2)
	if err != nil {
		return nil, err
	}
	if err := net.SetInit(ch.Input, 1); err != nil {
		return nil, err
	}
	tr, err := sim.Run(ctx, net, sim.Config{Rates: sim.Rates{Fast: ratio, Slow: 1}, TEnd: tEnd, Obs: cfg.observer()})
	if err != nil {
		return nil, err
	}
	stages := []string{ch.R(1), ch.G(1), ch.B(1), ch.R(2), ch.G(2), ch.B(2), ch.Output}
	for _, sp := range stages {
		cr, err := tr.Crossings(sp, 0.5, true)
		if err != nil {
			return nil, err
		}
		peak := 0.0
		for _, v := range tr.MustSeries(sp) {
			if v > peak {
				peak = v
			}
		}
		when := "never"
		if len(cr) > 0 {
			when = f3(cr[0])
		}
		res.Rows = append(res.Rows, []string{sp, when, f3(peak)})
	}
	fig, err := tr.ASCIIPlot(100, 12, ch.Input, ch.R(1), ch.B(1), ch.G(2), ch.Output)
	if err != nil {
		return nil, err
	}
	res.Figure = fig
	res.Notes = append(res.Notes,
		fmt.Sprintf("final Y = %s (input was 1.0); the abstract's figure shows the same crisp staircase hand-off", f4(tr.Final(ch.Output))))
	return res, nil
}
