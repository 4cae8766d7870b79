package exper

import (
	"context"
	"fmt"
	"math"

	"repro/internal/async"
	"repro/internal/crn"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E8",
		Title: "Stochastic validity: SSA vs ODE for the delay chain across molecule counts",
		Tags:  []string{TagGrid, TagStoch},
		Run:   runE8,
	})
}

func runE8(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:     "E8",
		Title:  "SSA vs ODE across system sizes",
		Header: []string{"molecules/unit", "runs", "mean |Y-Yode|", "worst |Y-Yode|", "mean Y"},
	}
	units := []float64{20, 100, 500}
	runs := 3
	ratio := 500.0
	tEnd := 150.0
	if cfg.Quick {
		units = []float64{50}
		runs = 2
		tEnd = 120
	}
	// Deterministic reference: the ODE value is the large-count limit the
	// SSA trajectories must converge to (it carries the scheme's own small
	// residue, which is not SSA noise).
	refNet := crn.NewNetwork()
	refCh, err := async.NewChain(refNet, "d", 2)
	if err != nil {
		return nil, err
	}
	if err := refNet.SetInit(refCh.Input, 1); err != nil {
		return nil, err
	}
	refTr, err := sim.Run(ctx, refNet, sim.Config{Rates: sim.Rates{Fast: ratio, Slow: 1}, TEnd: tEnd, Obs: cfg.observer()})
	if err != nil {
		return nil, err
	}
	yODE := refTr.Final(refCh.Output)

	// The SSA ensemble is one RunMany batch over the whole (unit, run) grid:
	// explicit seeds keep the historical per-point RNG streams (so the table
	// matches the old hand-rolled sweep bit for bit), Configure sets each
	// point's molecule unit, and each unit's replicates advance through
	// shared SoA lane blocks in finals-only mode.
	net := crn.NewNetwork()
	ch, err := async.NewChain(net, "d", 2)
	if err != nil {
		return nil, err
	}
	if err := net.SetInit(ch.Input, 1); err != nil {
		return nil, err
	}
	total := len(units) * runs
	seeds := make([]int64, total)
	for i := range seeds {
		seeds[i] = cfg.Seed + int64(i%runs) + int64(units[i/runs]*1000)
	}
	ens, err := sim.RunMany(ctx, net, sim.BatchConfig{
		Base: sim.Config{
			Method: sim.SSA, Rates: sim.Rates{Fast: ratio, Slow: 1}, TEnd: tEnd,
		},
		Runs:  total,
		Seeds: seeds,
		Configure: func(i int, c *sim.Config) {
			c.Unit = units[i/runs]
		},
		Lanes:      cfg.Lanes,
		Workers:    cfg.workers(),
		FinalsOnly: true,
		Metrics:    cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if err := ens.Err(); err != nil {
		return nil, err
	}
	yi, ok := ens.Index(ch.Output)
	if !ok {
		return nil, fmt.Errorf("exper: E8 output species %q missing", ch.Output)
	}

	for ui, unit := range units {
		meanErr, worst, meanY := 0.0, 0.0, 0.0
		for r := 0; r < runs; r++ {
			y := ens.Finals[ui*runs+r][yi]
			e := math.Abs(y - yODE)
			meanErr += e
			meanY += y
			if e > worst {
				worst = e
			}
		}
		meanErr /= float64(runs)
		meanY /= float64(runs)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.0f", unit), itoa(runs), f4(meanErr), f4(worst), f4(meanY),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("deterministic reference Y_ode = %s (input 1.0)", f4(yODE)),
		"shape criterion: the SSA deviation from the ODE shrinks as molecule counts per concentration unit grow")
	return res, nil
}
