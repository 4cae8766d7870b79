package exper

import (
	"context"
	"fmt"
	"math"

	"repro/internal/async"
	"repro/internal/crn"
	"repro/internal/dsd"
	"repro/internal/sfg"
	"repro/internal/sim"
	"repro/internal/synth"
)

func init() {
	register(Experiment{
		ID:    "E9",
		Title: "DNA strand-displacement mapping: blowup and fidelity vs fuel excess",
		Tags:  []string{TagScalar},
		Run:   runE9,
	})
}

func runE9(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:     "E9",
		Title:  "DSD compilation of the sequential constructs",
		Header: []string{"network", "Cmax", "species", "reactions", "fuels", "|Y - Y_ideal|"},
	}
	// Moderate rates keep the compiled network integrable: the DSD
	// unbinding reactions run at qmaxFactor·fast·Cmax.
	rates := sim.Rates{Fast: 20, Slow: 1}
	qf := 5.0
	cmaxes := []float64{5, 25}
	tEnd := 250.0
	if cfg.Quick {
		cmaxes = []float64{10}
		tEnd = 200
	}

	// Fidelity study: a one-element self-timed delay chain, ideal vs DSD.
	ideal := crn.NewNetwork()
	ch, err := async.NewChain(ideal, "d", 1)
	if err != nil {
		return nil, err
	}
	if err := ideal.SetInit(ch.Input, 1); err != nil {
		return nil, err
	}
	trIdeal, err := sim.Run(ctx, ideal, sim.Config{Rates: rates, TEnd: tEnd, Obs: cfg.observer()})
	if err != nil {
		return nil, err
	}
	yIdeal := trIdeal.Final(ch.Output)
	for _, cmax := range cmaxes {
		impl, st, err := dsd.Compile(ideal, dsd.Options{Rates: rates, Cmax: cmax, QmaxFactor: qf})
		if err != nil {
			return nil, err
		}
		trImpl, err := sim.Run(ctx, impl, sim.Config{Rates: rates, TEnd: tEnd, Obs: cfg.observer()})
		if err != nil {
			return nil, err
		}
		dev := math.Abs(trImpl.Final(ch.Output) - yIdeal)
		res.Rows = append(res.Rows, []string{
			"delay-chain(1)", f1(cmax), itoa(st.SpeciesAfter), itoa(st.ReactionsAfter), itoa(st.Fuels), f4(dev),
		})
	}

	// Blowup study (compile only): the clocked 2-tap filter.
	g, err := sfg.MovingAverage(2)
	if err != nil {
		return nil, err
	}
	cp, err := synth.Compile(g, "f")
	if err != nil {
		return nil, err
	}
	_, st, err := dsd.Compile(cp.Circuit.Net, dsd.Options{Rates: rates, Cmax: 100, QmaxFactor: qf})
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, []string{
		"movavg2 (compile only)", f1(100),
		fmt.Sprintf("%d (from %d)", st.SpeciesAfter, st.SpeciesBefore),
		fmt.Sprintf("%d (from %d)", st.ReactionsAfter, st.ReactionsBefore),
		itoa(st.Fuels), "-",
	})
	res.Notes = append(res.Notes,
		fmt.Sprintf("ideal final output Y = %s (input 1.0)", f4(yIdeal)),
		"shape criterion: DSD deviation shrinks as fuel excess Cmax grows; blowup is a constant factor (<= 4 reactions, <= 2 fuels per formal reaction)")
	return res, nil
}
