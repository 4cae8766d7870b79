package exper

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/async"
	"repro/internal/batch"
	"repro/internal/crn"
	"repro/internal/sfg"
	"repro/internal/sim"
	"repro/internal/synth"
)

func init() {
	register(Experiment{
		ID:    "E7",
		Title: "Synchronous vs self-timed delay lines: structural cost and latency",
		Tags:  []string{TagGrid},
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Self-timed chain scaling: length vs latency, fidelity and cost",
		Tags:  []string{TagGrid},
		Run:   runE10,
	})
}

// delayLineGraph builds an n-delay identity pipeline SFG.
func delayLineGraph(n int) (*sfg.Graph, error) {
	g := sfg.New()
	if err := g.Input("x"); err != nil {
		return nil, err
	}
	prev := "x"
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("d%d", i)
		if err := g.Delay(name, prev, 0); err != nil {
			return nil, err
		}
		prev = name
	}
	if err := g.Output("y", prev); err != nil {
		return nil, err
	}
	return g, nil
}

func runE7(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:     "E7",
		Title:  "Sync vs async delay lines",
		Header: []string{"scheme", "n", "species", "reactions", "latency", "output"},
	}
	lengths := []int{2, 4, 8}
	ratio := 500.0
	if cfg.Quick {
		lengths = []int{2, 4}
	}
	// One job per chain length; each job runs the self-timed chain and the
	// clocked pipeline back to back and returns both rows, so the table
	// keeps the historical async/sync interleaving.
	rowPairs, err := batch.Map(ctx, len(lengths), func(ctx context.Context, i int) ([][]string, error) {
		n := lengths[i]
		jobObs := cfg.observer()
		// Self-timed chain: one-shot transfer of 1.0.
		net := crn.NewNetwork()
		ch, err := async.NewChain(net, "a", n)
		if err != nil {
			return nil, err
		}
		if err := net.SetInit(ch.Input, 1); err != nil {
			return nil, err
		}
		tEnd := 60.0 * float64(n)
		tr, err := sim.Run(ctx, net, sim.Config{Rates: sim.Rates{Fast: ratio, Slow: 1}, TEnd: tEnd, Obs: jobObs})
		if err != nil {
			return nil, err
		}
		lat, err := ch.Latency(tr, 1)
		if err != nil {
			return nil, err
		}
		cost := analysis.CostOf(net)
		asyncRow := []string{
			"async", itoa(n), itoa(cost.Species), itoa(cost.Reactions), f1(lat), f3(tr.Final(ch.Output)),
		}

		// Clocked pipeline: first sample 1.0 then zeros; latency is the
		// time the output sink has collected half the value.
		g, err := delayLineGraph(n)
		if err != nil {
			return nil, err
		}
		cp, err := synth.Compile(g, "s")
		if err != nil {
			return nil, err
		}
		x := make([]float64, n+2)
		x[0] = 1
		events, err := cp.StreamConfig(map[string][]float64{"x": x})
		if err != nil {
			return nil, err
		}
		trS, err := sim.Run(ctx, cp.Circuit.Net, sim.Config{
			Rates: sim.Rates{Fast: ratio, Slow: 1}, TEnd: 45 * float64(n+2), Events: events, Obs: jobObs,
		})
		if err != nil {
			return nil, err
		}
		sink := cp.OutSinks["y"]
		cr, err := trS.Crossings(sink, 0.5, true)
		if err != nil {
			return nil, err
		}
		latS := "never"
		if len(cr) > 0 {
			latS = f1(cr[0])
		}
		costS := analysis.CostOf(cp.Circuit.Net)
		syncRow := []string{
			"sync", itoa(n), itoa(costS.Species), itoa(costS.Reactions), latS, f3(trS.Final(sink)),
		}
		return [][]string{asyncRow, syncRow}, nil
	}, cfg.batchOpts())
	if err != nil {
		return nil, err
	}
	for _, pair := range rowPairs {
		res.Rows = append(res.Rows, pair...)
	}
	res.Notes = append(res.Notes,
		"async: 3 phase transfers per element, no clock species; sync: 4-stage registers plus the shared clock — higher structural cost, but streaming operation",
		"both schemes' latency grows linearly with n; the async chain is one-shot (see package async)")
	return res, nil
}

func runE10(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:     "E10",
		Title:  "Self-timed chain scaling",
		Header: []string{"n", "species", "reactions", "latency", "|Y-1|", "sim wall time"},
	}
	lengths := []int{2, 4, 8, 16}
	ratio := 500.0
	if cfg.Quick {
		lengths = []int{2, 4}
	}
	// One job per chain length. The wall-time column measures each job's own
	// simulation, so under a parallel pool the values shift with machine
	// load while every other column stays bit-identical.
	rows, err := batch.Map(ctx, len(lengths), func(ctx context.Context, i int) ([]string, error) {
		n := lengths[i]
		net := crn.NewNetwork()
		ch, err := async.NewChain(net, "a", n)
		if err != nil {
			return nil, err
		}
		if err := net.SetInit(ch.Input, 1); err != nil {
			return nil, err
		}
		start := time.Now()
		tr, err := sim.Run(ctx, net, sim.Config{Rates: sim.Rates{Fast: ratio, Slow: 1}, TEnd: 60 * float64(n), Obs: cfg.observer()})
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		lat, err := ch.Latency(tr, 1)
		if err != nil {
			return nil, err
		}
		dev := tr.Final(ch.Output) - 1
		if dev < 0 {
			dev = -dev
		}
		cost := analysis.CostOf(net)
		return []string{
			itoa(n), itoa(cost.Species), itoa(cost.Reactions), f1(lat), f4(dev), wall.Round(time.Millisecond).String(),
		}, nil
	}, cfg.batchOpts())
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.Notes = append(res.Notes,
		"reaction count grows as O(n^2): the abstract's positive-feedback set couples every transfer to every same-colour element",
		"transfer fidelity holds as the chain grows because the three shared absence indicators sequence all elements together")
	return res, nil
}
