package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// tauCtxCheckEvery is how often (in leap steps) the tau-leap loop polls its
// context. A leap is orders of magnitude more work than an SSA firing
// (propensities, leap condition and Poisson draws over every reaction), so
// polling every 64 leaps keeps cancellation latency low at negligible cost.
const tauCtxCheckEvery = 64

// ErrMaxLeaps reports that a tau-leap run used up Config.MaxLeaps before
// reaching TEnd; the run returns no trace.
var ErrMaxLeaps = errors.New("sim: tau-leap budget exhausted")

// runTauLeap is the accelerated stochastic backend of Run; cfg has been
// normalized and the network validated. Steps whose Poisson draws would
// drive a population negative are retried with half the leap, degenerating
// towards exact behaviour; the returned trace reports concentrations like
// the SSA backend.
//
// Propensities, stoichiometry and rates come from the same compiled kernel
// as the SSA and ODE backends, and the leap-condition moment sweep skips
// zero-propensity reactions (gated reactions outside their phase), which on
// the paper's clocked circuits is most of the network at any instant.
func runTauLeap(ctx context.Context, n *crn.Network, cfg Config) (*trace.Trace, error) {
	omega := cfg.Unit
	nsp := n.NumSpecies()
	nrx := n.NumReactions()
	counts := make([]float64, nsp)
	for i, c := range n.Init() {
		counts[i] = math.Round(c * omega)
	}
	k := cfg.compiled
	if k == nil {
		k = kernel.Compile(n, cfg.Rates.Of)
	}
	kscaled := k.StochRates(omega)
	stats := cfg.Kernel
	if stats == nil {
		stats = &kernel.Stats{}
	}

	rng := kernel.NewRNG(cfg.Seed)
	tr := trace.New(n.SpeciesNames())
	tr.Grow(int(cfg.TEnd/cfg.SampleEvery) + 2)
	conc := make([]float64, nsp)
	emit := func(at float64) error {
		for i := range conc {
			conc[i] = counts[i] / omega
		}
		return tr.Append(at, conc)
	}
	if err := emit(0); err != nil {
		return nil, err
	}
	sink, startWall, err := startRun(n, "tauleap", cfg.TEnd, cfg.Obs, cfg.Watchers)
	if err != nil {
		return nil, err
	}

	props := make([]float64, nrx)
	mu := make([]float64, nsp)
	sigma2 := make([]float64, nsp)
	fires := make([]float64, nrx)
	t := 0.0
	nextSample := cfg.SampleEvery
	leaps := 0
	for leap := 0; t < cfg.TEnd; leap++ {
		if leap == cfg.MaxLeaps {
			err := fmt.Errorf("%w at t=%g of %g (%d leaps)", ErrMaxLeaps, t, cfg.TEnd, leap)
			endRunStats("tauleap", t, leap, cfg.Obs, sink, cfg.Watchers, startWall, err, *stats)
			return nil, err
		}
		if leap%tauCtxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				err = fmt.Errorf("sim: tauleap interrupted at t=%g of %g (%d leaps): %w",
					t, cfg.TEnd, leap, err)
				endRunStats("tauleap", t, leap, cfg.Obs, sink, cfg.Watchers, startWall, err, *stats)
				return nil, err
			}
		}
		leaps = leap + 1
		total := 0.0
		for i := 0; i < nrx; i++ {
			props[i] = k.Propensity(i, kscaled, counts)
			total += props[i]
		}
		if total <= 0 {
			break
		}
		// Leap condition: expected and variance of per-species change.
		// Zero-propensity reactions contribute nothing and are skipped.
		for i := range mu {
			mu[i], sigma2[i] = 0, 0
		}
		for j := 0; j < nrx; j++ {
			p := props[j]
			if p == 0 {
				continue
			}
			spec, val := k.Deltas(j)
			for x, sp := range spec {
				mu[sp] += val[x] * p
				sigma2[sp] += val[x] * val[x] * p
			}
		}
		tau := cfg.TEnd - t
		for i := 0; i < nsp; i++ {
			bound := math.Max(cfg.Epsilon*counts[i], 1)
			if m := math.Abs(mu[i]); m > 0 {
				tau = math.Min(tau, bound/m)
			}
			if sigma2[i] > 0 {
				tau = math.Min(tau, bound*bound/sigma2[i])
			}
		}
		// A leap shorter than a few exact steps is pointless; take it
		// anyway as a short leap (the Poisson draws then mostly produce
		// 0/1 counts, recovering near-exact behaviour).
		if tau <= 0 {
			tau = 1 / total
		}
		for retry := 0; ; retry++ {
			for j := 0; j < nrx; j++ {
				fires[j] = poisson(rng, props[j]*tau)
			}
			for j := 0; j < nrx; j++ {
				if fires[j] == 0 {
					continue
				}
				spec, val := k.Deltas(j)
				for x, sp := range spec {
					counts[sp] += val[x] * fires[j]
				}
			}
			neg := false
			for i := 0; i < nsp; i++ {
				if counts[i] < 0 {
					neg = true
					break
				}
			}
			if !neg {
				break
			}
			// Roll back and retry with half the leap.
			for j := 0; j < nrx; j++ {
				if fires[j] == 0 {
					continue
				}
				spec, val := k.Deltas(j)
				for x, sp := range spec {
					counts[sp] -= val[x] * fires[j]
				}
			}
			stats.LeapRejections++
			if cfg.Obs != nil {
				cfg.Obs.OnStep(obs.Step{T: t, H: tau, Accepted: false, Propensity: total})
			}
			tau /= 2
			if retry > 60 {
				err := fmt.Errorf("sim: tau-leap failed to find a feasible step at t=%g", t)
				endRunStats("tauleap", t, leaps, cfg.Obs, sink, cfg.Watchers, startWall, err, *stats)
				return nil, err
			}
		}
		t += tau
		if cfg.Obs != nil {
			cfg.Obs.OnStep(obs.Step{T: t, H: tau, Accepted: true, Propensity: total})
			for j := 0; j < nrx; j++ {
				if fires[j] > 0 {
					cfg.Obs.OnReactionFiring(obs.ReactionFiring{T: t, Reaction: j, Count: fires[j]})
				}
			}
		}
		for nextSample <= cfg.TEnd && t >= nextSample {
			if err := emit(nextSample); err != nil {
				return nil, err
			}
			obs.ObserveAll(cfg.Watchers, nextSample, conc, sink)
			nextSample += cfg.SampleEvery
		}
	}
	if tr.End() < cfg.TEnd {
		if err := emit(cfg.TEnd); err != nil {
			return nil, err
		}
	}
	endRunStats("tauleap", cfg.TEnd, leaps, cfg.Obs, sink, cfg.Watchers, startWall, nil, *stats)
	return tr, nil
}

// poisson draws a Poisson variate with the given mean: Knuth's product
// method for small means, a clamped normal approximation for large ones.
func poisson(rng *kernel.RNG, mean float64) float64 {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return float64(k)
			}
			k++
		}
	default:
		v := math.Round(mean + math.Sqrt(mean)*rng.NormFloat64())
		if v < 0 {
			return 0
		}
		return v
	}
}
