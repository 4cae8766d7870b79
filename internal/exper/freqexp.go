package exper

import (
	"context"
	"math"

	"repro/internal/batch"
	"repro/internal/sfg"
	"repro/internal/sim"
	"repro/internal/synth"
)

func init() {
	register(Experiment{
		ID:    "E13",
		Title: "Frequency response of the molecular moving-average filter",
		Tags:  []string{TagGrid},
		Run:   runE13,
	})
}

// demodAmplitude extracts the amplitude of the component at normalized
// frequency f (cycles/sample) from a sample stream, ignoring the first skip
// samples (filter transient).
func demodAmplitude(y []float64, f float64, skip int) float64 {
	w := y[skip:]
	n := len(w)
	if n == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range w {
		mean += v
	}
	mean /= float64(n)
	s, c := 0.0, 0.0
	for k, v := range w {
		ph := 2 * math.Pi * f * float64(k+skip)
		s += (v - mean) * math.Sin(ph)
		c += (v - mean) * math.Cos(ph)
	}
	s *= 2 / float64(n)
	c *= 2 / float64(n)
	return math.Hypot(s, c)
}

// movingAverageGain is the analytic magnitude response of an n-tap moving
// average at normalized frequency f.
func movingAverageGain(n int, f float64) float64 {
	if f == 0 {
		return 1
	}
	w := math.Pi * f
	return math.Abs(math.Sin(float64(n)*w) / (float64(n) * math.Sin(w)))
}

func runE13(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:     "E13",
		Title:  "Molecular filter frequency response",
		Header: []string{"freq (cyc/sample)", "theory amp", "golden amp", "molecular amp", "molecular/theory"},
	}
	// Frequencies chosen so the demodulation window (nCycles − taps = 16
	// samples) holds an integer number of periods of each, sweeping the
	// 4-tap response from passband (f = 1/16, |H| ≈ 0.91) through the
	// rolloff to the transmission zeros at f = 1/4 and f = 1/2.
	taps := 4
	freqs := []float64{1.0 / 16, 1.0 / 8, 3.0 / 16, 1.0 / 4, 1.0 / 2}
	nCycles := 20
	tEnd := 1000.0
	ratio := 1000.0
	if cfg.Quick {
		taps = 2
		freqs = []float64{0.25}
		nCycles = 8
		tEnd = 400
		ratio = 500
	}
	const (
		dc  = 0.75
		amp = 0.5
	)
	// One job per probe frequency; each builds its own graph and compiled
	// circuit, because the golden-model evaluation and synthesis both walk
	// mutable structures that must stay private to the job.
	rows, err := batch.Map(ctx, len(freqs), func(ctx context.Context, i int) ([]string, error) {
		f := freqs[i]
		g, err := sfg.MovingAverage(taps)
		if err != nil {
			return nil, err
		}
		x := make([]float64, nCycles)
		for k := range x {
			x[k] = dc + amp*math.Sin(2*math.Pi*f*float64(k))
		}
		golden, err := g.Run(map[string][]float64{"x": x})
		if err != nil {
			return nil, err
		}
		cp, err := synth.Compile(g, "f")
		if err != nil {
			return nil, err
		}
		cp.Obs = cfg.observer()
		_, outs, err := cp.RunContext(ctx, sim.Rates{Fast: ratio, Slow: 1}, tEnd, map[string][]float64{"x": x}, nCycles)
		if err != nil {
			return nil, err
		}
		skip := taps // drop the fill transient
		theory := amp * movingAverageGain(taps, f)
		ga := demodAmplitude(golden["y"], f, skip)
		ma := demodAmplitude(outs["y"], f, skip)
		rel := "-"
		if theory > 1e-9 {
			rel = f3(ma / theory)
		}
		return []string{f3(f), f4(theory), f4(ga), f4(ma), rel}, nil
	}, cfg.batchOpts())
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.Notes = append(res.Notes,
		"input: x[k] = 0.75 + 0.5·sin(2πfk) (concentrations must stay positive, hence the DC offset)",
		"shape criterion: the molecular filter's gains track the analytic moving-average response (theory amp = 0.5·|H(f)|); the 4-tap filter has transmission zeros at f = 1/4 and f = 1/2")
	return res, nil
}
