package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/batch"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
)

// finals holds a reply's final states: one map for a single trajectory,
// one per run for an ensemble, one per sweep point for a job.
type finals []map[string]float64

// replyFinals extracts the final states from the bytes kept of a reply to
// s, and checks the identity fields a sweep job reports for each point.
func replyFinals(s spec, kept []byte) (finals, error) {
	switch {
	case s.Job:
		var st server.JobStatus
		if err := json.Unmarshal(kept, &st); err != nil {
			return nil, fmt.Errorf("job reply: %w", err)
		}
		if len(st.Results) != s.points() {
			return nil, fmt.Errorf("job reply has %d results, want %d", len(st.Results), s.points())
		}
		out := make(finals, len(st.Results))
		for i, pr := range st.Results {
			if pr.Err != "" {
				return nil, fmt.Errorf("point %d: %s", i, pr.Err)
			}
			if pr.Index != i || pr.Seed != batch.DeriveSeed(s.Seed, i) || pr.Ratio != s.Ratios[i/s.Runs] {
				return nil, fmt.Errorf("point %d reports index %d seed %d ratio %g", i, pr.Index, pr.Seed, pr.Ratio)
			}
			out[i] = pr.Final
		}
		return out, nil
	case s.ensemble():
		var r server.SimulateResponse
		if err := json.Unmarshal(kept, &r); err != nil {
			return nil, fmt.Errorf("ensemble reply: %w", err)
		}
		if r.Ensemble == nil || len(r.Ensemble.PerRun) != s.Runs {
			return nil, fmt.Errorf("ensemble reply lacks %d runs", s.Runs)
		}
		out := make(finals, s.Runs)
		for i, run := range r.Ensemble.PerRun {
			if run.Err != "" {
				return nil, fmt.Errorf("run %d: %s", i, run.Err)
			}
			out[i] = run.Final
		}
		return out, nil
	default:
		var r struct {
			Final map[string]float64 `json:"final"`
		}
		if err := json.Unmarshal(kept, &r); err != nil {
			return nil, fmt.Errorf("trajectory reply: %w", err)
		}
		return finals{r.Final}, nil
	}
}

// project maps a final-state row onto species names: the requested record
// list, or every species.
func project(names, record []string, row []float64) map[string]float64 {
	m := make(map[string]float64, len(names))
	if len(record) == 0 {
		for i, n := range names {
			m[n] = row[i]
		}
		return m
	}
	for _, n := range record {
		for i, m2 := range names {
			if m2 == n {
				m[n] = row[i]
				break
			}
		}
	}
	return m
}

// trajectoryFinals projects a trace's last row.
func trajectoryFinals(tr *trace.Trace, record []string) finals {
	return finals{project(tr.Names, record, tr.Rows[len(tr.Rows)-1])}
}

// ensembleFinals projects every run's final row.
func ensembleFinals(ens *trace.Ensemble, record []string) (finals, error) {
	if err := ens.Err(); err != nil {
		return nil, err
	}
	out := make(finals, ens.Runs())
	for i, row := range ens.Finals {
		out[i] = project(ens.Names, record, row)
	}
	return out, nil
}

// sweepConfig is the RunMany configuration of a sweep job at the seeds and
// ratios each point reports: point i runs ratio Ratios[i/Runs] with seed
// DeriveSeed(Seed, i).
func sweepConfig(s spec) sim.BatchConfig {
	base := s.config()
	seeds := make([]int64, s.points())
	for i := range seeds {
		seeds[i] = batch.DeriveSeed(s.Seed, i)
	}
	return sim.BatchConfig{
		Base:       base,
		Seeds:      seeds,
		FinalsOnly: true,
		Configure: func(i int, cfg *sim.Config) {
			cfg.Rates = sim.Rates{Fast: base.Rates.Slow * s.Ratios[i/s.Runs], Slow: base.Rates.Slow}
		},
	}
}

// references computes the finals the output check compares replies with,
// by calling sim.Run or sim.RunMany directly with the configuration and
// seeds the server derives. The ODE ignores the seed, so a single-run ODE
// problem, and an ODE sweep point at a given ratio, is run once and its
// final row projected onto each request's record list.
type references struct {
	ds    []design
	mu    sync.Mutex
	ode   map[odeKey][]float64
	sweep map[odeKey]sweepRow
}

// sweepRow is the final row of one ODE sweep point, run by sim.RunMany.
type sweepRow struct {
	names []string
	row   []float64
}

// odeKey is what sets a single-run ODE problem's result.
type odeKey struct {
	design     int
	tEnd, fast float64
}

func newReferences(ds []design) *references {
	return &references{ds: ds, ode: map[odeKey][]float64{}, sweep: map[odeKey]sweepRow{}}
}

// odeSweepFinals runs each ratio of a single-run ODE sweep through
// sim.RunMany once, at the first point's seed and ratio, and shares the
// final row among every point and job at that ratio.
func (rf *references) odeSweepFinals(s spec) (finals, error) {
	bc := sweepConfig(s)
	out := make(finals, s.points())
	for i := range out {
		key := odeKey{s.Design, s.TEnd, s.Ratios[i/s.Runs]}
		rf.mu.Lock()
		sr, ok := rf.sweep[key]
		rf.mu.Unlock()
		if !ok {
			one := bc
			one.Seeds = bc.Seeds[i : i+1]
			one.Configure = func(_ int, cfg *sim.Config) { bc.Configure(i, cfg) }
			ens, err := sim.RunMany(context.Background(), rf.ds[s.Design].net, one)
			if err != nil {
				return nil, err
			}
			if err := ens.Err(); err != nil {
				return nil, err
			}
			sr = sweepRow{ens.Names, ens.Finals[0]}
			rf.mu.Lock()
			rf.sweep[key] = sr
			rf.mu.Unlock()
		}
		out[i] = project(sr.names, s.Record, sr.row)
	}
	return out, nil
}

func (rf *references) finals(s spec) (finals, error) {
	ctx, net := context.Background(), rf.ds[s.Design].net
	switch {
	case s.Job && s.Method == "" && s.Runs == 1:
		return rf.odeSweepFinals(s)
	case s.Job:
		bc := sweepConfig(s)
		bc.Workers = runtime.NumCPU()
		ens, err := sim.RunMany(ctx, net, bc)
		if err != nil {
			return nil, err
		}
		return ensembleFinals(ens, s.Record)
	case s.ensemble():
		ens, err := sim.RunMany(ctx, net, sim.BatchConfig{Base: s.config(), Runs: s.Runs, FinalsOnly: true})
		if err != nil {
			return nil, err
		}
		return ensembleFinals(ens, s.Record)
	case s.Method == "":
		key := odeKey{s.Design, s.TEnd, s.Fast}
		rf.mu.Lock()
		row, ok := rf.ode[key]
		rf.mu.Unlock()
		if !ok {
			tr, err := sim.Run(ctx, net, s.config())
			if err != nil {
				return nil, err
			}
			row = tr.Rows[len(tr.Rows)-1]
			rf.mu.Lock()
			rf.ode[key] = row
			rf.mu.Unlock()
		}
		return finals{project(net.SpeciesNames(), s.Record, row)}, nil
	default:
		tr, err := sim.Run(ctx, net, s.config())
		if err != nil {
			return nil, err
		}
		return trajectoryFinals(tr, s.Record), nil
	}
}

// sameFinals compares two sets of finals bit for bit.
func sameFinals(got, want finals) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d final states, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("run %d: %d species, want %d", i, len(got[i]), len(want[i]))
		}
		for name, w := range want[i] {
			g, ok := got[i][name]
			if !ok || math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("run %d: %s = %v, want %v", i, name, g, w)
			}
		}
	}
	return nil
}

// verify runs the output check over every outcome that has not already
// failed and marks mismatches as failed operations. A repeated body must
// get a reply byte-identical to the first one (checksum and length); every
// other reply must carry the finals want returns for its request. Those
// are checked on every processor, so want must be safe for concurrent use.
func verify(c *client, outs []outcome, want func(request) (finals, error)) {
	next := make(chan *outcome)
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range next {
				checkFinals(c, o, want)
			}
		}()
	}
	for i := range outs {
		if o := &outs[i]; o.fail == "" && o.req.Repeat < 0 {
			next <- o
		}
	}
	close(next)
	wg.Wait()
	// Repeats resend fresh bodies, which are all checked by now.
	byID := make(map[int]*outcome, len(outs))
	for i := range outs {
		byID[outs[i].req.ID] = &outs[i]
	}
	for i := range outs {
		o := &outs[i]
		if o.fail != "" || o.req.Repeat < 0 {
			continue
		}
		if src := byID[o.req.Repeat]; src != nil && src.fail == "" {
			if o.size != src.size || o.crc != src.crc {
				o.fail = fmt.Sprintf("reply differs from the first reply to the same body (request %d)", src.req.ID)
			}
			continue
		}
		checkFinals(c, o, want)
	}
}

// checkFinals compares a reply's finals with want's.
func checkFinals(c *client, o *outcome, want func(request) (finals, error)) {
	kept, err := c.kept(o)
	var got finals
	if err == nil {
		got, err = replyFinals(o.req.Spec, kept)
	}
	if err == nil {
		var w finals
		if w, err = want(o.req); err == nil {
			err = sameFinals(got, w)
		}
	}
	if err != nil {
		o.fail = "output check: " + err.Error()
	}
}
