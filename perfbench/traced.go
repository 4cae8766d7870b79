package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/ode"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the enclosing span, -1 for the request's root.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(req, parent int, name string) int {
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans), Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0).Nanoseconds() }

// selfTimes sums each span name's self time: its duration minus the
// durations of its children (the replay is sequential, so children never
// overlap).
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// endCapture keeps the SimEnd event of the run it observes. Each sweep
// point gets its own, since points run on worker goroutines.
type endCapture struct {
	obs.Base
	end obs.SimEnd
}

func (c *endCapture) OnSimEnd(e obs.SimEnd) { c.end = e }

// odeProblem is one ODE run the integrate replay repeats, with the
// counters sim.Run reported for it.
type odeProblem struct {
	net *crn.Network
	cfg sim.Config
	got obs.SimEnd
}

// replay calls each layer's public function in the handler's order and
// records a span around each call.
type replay struct {
	ctx    context.Context
	ds     []design
	tr     tracer
	nets   map[[32]byte]*crn.Network // parsed on first sight, like the network cache
	keys   map[[32]byte]bool         // reply keys seen; a repeat stops after its key
	reg    *obs.Registry             // target of the handler-style registry observer
	want   map[int]finals            // finals per request ID, for the output check
	ks     kernel.Stats              // single-run SSA counters
	ens    kernel.Stats              // RunMany counters
	odes   []odeProblem
	ssaNs  int64 // sim.Run time of SSA runs
	laneNs int64 // sim.RunMany time of SSA ensembles and sweeps
	cells  int64
	bytes  int64
	encs   int
	pts    int
}

func newReplay(ds []design) *replay {
	return &replay{ctx: context.Background(), ds: ds, nets: map[[32]byte]*crn.Network{},
		keys: map[[32]byte]bool{}, reg: obs.NewRegistry(), want: map[int]finals{}}
}

// network hashes the text as the network cache does and parses it on
// first sight.
func (rp *replay) network(id, root int, text string) (*crn.Network, error) {
	sp := rp.tr.begin(id, root, "server.canon")
	h := sha256.Sum256([]byte(text))
	rp.tr.end(sp)
	if n, ok := rp.nets[h]; ok {
		return n, nil
	}
	sp = rp.tr.begin(id, root, "crn.parse")
	n, err := crn.ParseString(text)
	rp.tr.end(sp)
	rp.nets[h] = n
	return n, err
}

// compile builds the kernel structure, one binding per rate assignment,
// and the Jacobian assembler.
func (rp *replay) compile(id, root int, net *crn.Network, rates []sim.Rates) {
	sp := rp.tr.begin(id, root, "kernel.compile")
	st := kernel.NewStructure(net)
	for _, r := range rates {
		st.Bind(r.Of)
	}
	st.Jac()
	rp.tr.end(sp)
}

// encode shapes a reply and marshals it, as the handler does after a run.
func (rp *replay) encode(id, root int, shape func() any) error {
	sp := rp.tr.begin(id, root, "server.encode")
	b, err := json.Marshal(shape())
	rp.tr.end(sp)
	rp.bytes += int64(len(b))
	rp.encs++
	return err
}

// lanes adds a RunMany span to the lane engine's time. ODE points never run
// laned, so an ODE sweep's time stays out of ensemble.ns_per_lane_step.
func (rp *replay) lanes(sp int, method sim.Method) {
	if method != sim.ODE {
		rp.laneNs += rp.tr.spans[sp].End - rp.tr.spans[sp].Start
	}
}

// request replays one request under a root span.
func (rp *replay) request(req request) error {
	body := req.Spec.body(rp.ds)
	root := rp.tr.begin(req.ID, -1, "request")
	var err error
	if req.Spec.Job {
		err = rp.job(req, body, root)
	} else {
		err = rp.simulate(req, body, root)
	}
	rp.tr.end(root)
	if err != nil {
		return fmt.Errorf("replay of request %d (%s): %w", req.ID, req.Class, err)
	}
	return nil
}

func (rp *replay) simulate(req request, body []byte, root int) error {
	id := req.ID
	sp := rp.tr.begin(id, root, "server.decode")
	var sr server.SimulateRequest
	err := json.Unmarshal(body, &sr)
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	net, err := rp.network(id, root, sr.CRN)
	if err != nil {
		return err
	}
	// The reply key: the network re-rendered in canonical form plus the
	// request's semantic fields, hashed, as the handler does on every
	// request, hits included.
	sp = rp.tr.begin(id, root, "server.canon")
	canon := struct {
		Net string
		Req server.SimulateRequest
	}{net.String(), sr}
	canon.Req.CRN = ""
	kb, _ := json.Marshal(canon)
	key := sha256.Sum256(kb)
	rp.tr.end(sp)
	if rp.keys[key] {
		return nil
	}
	rp.keys[key] = true

	cfg := req.Spec.config()
	rp.compile(id, root, net, []sim.Rates{cfg.Rates})
	names := net.SpeciesNames()
	if req.Spec.ensemble() {
		cfg.Kernel = &rp.ens
		sp = rp.tr.begin(id, root, "ensemble.run")
		ens, err := sim.RunMany(rp.ctx, net, sim.BatchConfig{Base: cfg, Runs: sr.Runs, FinalsOnly: true, Metrics: rp.reg})
		rp.tr.end(sp)
		if err != nil {
			return err
		}
		rp.lanes(sp, cfg.Method)
		if rp.want[id], err = ensembleFinals(ens, sr.Record); err != nil {
			return err
		}
		return rp.encode(id, root, func() any {
			sum := &server.EnsembleSummary{Runs: ens.Runs(), OK: ens.OK(), PerRun: make([]server.RunSummary, ens.Runs()),
				Mean: project(names, sr.Record, ens.Mean()), Stddev: project(names, sr.Record, ens.Stddev())}
			for i, f := range rp.want[id] {
				sum.PerRun[i] = server.RunSummary{Seed: batch.DeriveSeed(cfg.Seed, i), Final: f}
			}
			return &server.SimulateResponse{Method: req.Spec.Method, Species: names, Ensemble: sum}
		})
	}

	capt := &endCapture{}
	cfg.Obs = obs.Multi(obs.NewRegistryObserver(rp.reg), capt)
	if cfg.Method != sim.ODE {
		cfg.Kernel = &rp.ks
	}
	sp = rp.tr.begin(id, root, "sim.run")
	tr, err := sim.Run(rp.ctx, net, cfg)
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	if cfg.Method == sim.ODE {
		cfg.Obs = nil
		rp.odes = append(rp.odes, odeProblem{net: net, cfg: cfg, got: capt.end})
	} else {
		rp.ssaNs += rp.tr.spans[sp].End - rp.tr.spans[sp].Start
	}
	rp.want[id] = trajectoryFinals(tr, sr.Record)

	cols := names
	if len(sr.Record) > 0 {
		cols = sr.Record
	}
	rp.cells += int64(len(tr.Rows) * len(cols))
	return rp.encode(id, root, func() any {
		// Project the recorded columns, as the handler does.
		idx := make([]int, len(cols))
		for j, c := range cols {
			idx[j], _ = tr.Index(c)
		}
		rows := make([][]float64, len(tr.Rows))
		for k, row := range tr.Rows {
			out := make([]float64, len(idx))
			for j, c := range idx {
				out[j] = row[c]
			}
			rows[k] = out
		}
		return &server.SimulateResponse{Method: cfg.Method.String(), Species: cols, T: tr.T,
			Rows: rows, Final: rp.want[id][0]}
	})
}

func (rp *replay) job(req request, body []byte, root int) error {
	id := req.ID
	sp := rp.tr.begin(id, root, "server.decode")
	var jr server.JobRequest
	err := json.Unmarshal(body, &jr)
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	net, err := rp.network(id, root, jr.CRN)
	if err != nil {
		return err
	}
	bc := sweepConfig(req.Spec)
	rates := make([]sim.Rates, len(jr.Ratios))
	for i, r := range jr.Ratios {
		rates[i] = sim.Rates{Fast: r, Slow: 1}
	}
	rp.compile(id, root, net, rates)

	bc.Workers = runtime.NumCPU()
	bc.Metrics = rp.reg
	bc.Base.Kernel = &rp.ens
	points := req.Spec.points()
	capts := make([]*endCapture, points)
	if bc.Base.Method == sim.ODE {
		// ODE points never run laned, so an observer changes nothing.
		configure := bc.Configure
		bc.Configure = func(i int, cfg *sim.Config) {
			configure(i, cfg)
			capts[i] = &endCapture{}
			cfg.Obs = capts[i]
		}
	}
	sp = rp.tr.begin(id, root, "ensemble.run")
	ens, err := sim.RunMany(rp.ctx, net, bc)
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	rp.lanes(sp, bc.Base.Method)
	if rp.want[id], err = ensembleFinals(ens, jr.Record); err != nil {
		return err
	}
	rp.pts += points
	for i, c := range capts {
		if c != nil {
			cfg := bc.Base
			cfg.Rates = sim.Rates{Fast: jr.Ratios[i/req.Spec.Runs], Slow: 1}
			rp.odes = append(rp.odes, odeProblem{net: net, cfg: cfg, got: c.end})
		}
	}
	return rp.encode(id, root, func() any {
		st := server.JobStatus{ID: fmt.Sprintf("job-%06d", id), State: "done", Completed: points, Total: points,
			Results: make([]server.PointResult, points)}
		for i, f := range rp.want[id] {
			st.Results[i] = server.PointResult{Index: i, Ratio: jr.Ratios[i/req.Spec.Runs], Seed: bc.Seeds[i], Final: f}
		}
		return &st
	})
}

// integ is the integrate replay's split of one or more ODE runs.
type integ struct {
	derivNs, jacNs                                 int64
	explicitNs, explicitDerivNs                    int64
	stiffNs, stiffDerivNs                          int64
	steps, evals, jacFills, factorizations, solves int
	switched, mismatches                           int
	firstMismatch                                  string
}

// timedJac wraps the kernel's Jacobian assembler with a clock around each
// refill.
type timedJac struct {
	k  *kernel.Compiled
	j  *kernel.Jacobian
	in *integ
}

func (a timedJac) Dim() int                          { return a.j.Dim() }
func (a timedJac) Pattern() (colPtr, rowIdx []int32) { return a.j.Pattern() }
func (a timedJac) Fill(_ float64, y, nz []float64) {
	t0 := time.Now()
	a.j.Fill(a.k, y, nz)
	a.in.jacNs += time.Since(t0).Nanoseconds()
}

// integrate repeats one automatic-solver ODE run through the public
// integrators, the way sim.Run wires them: the explicit method with
// stiffness detection, then the stiff method from where detection fired.
// Derivative and Jacobian calls are timed by wrappers.
func (in *integ) integrate(ctx context.Context, p odeProblem) {
	cfg := p.cfg
	sample := cfg.TEnd / 1000
	opts := ode.Options{MaxStep: sample, NonNegative: true}
	k := kernel.NewStructure(p.net).Bind(cfg.Rates.Of)
	y := p.net.Init()
	tr := trace.New(p.net.SpeciesNames())
	tr.Grow(int(cfg.TEnd/sample) + 2)
	tr.Append(0, y)
	next := sample
	step := func(t float64, yy []float64) (bool, bool) {
		if t >= next && tr.Append(t, yy) == nil {
			for t >= next {
				next += sample
			}
		}
		return false, false
	}
	deriv := func(_ float64, yy, dy []float64) {
		t0 := time.Now()
		k.Deriv(yy, dy)
		in.derivNs += time.Since(t0).Nanoseconds()
	}
	d0 := in.derivNs
	auto := opts
	auto.StiffDetect = true
	t0 := time.Now()
	st, err := ode.Integrate(ctx, deriv, y, 0, cfg.TEnd, auto, step)
	in.explicitNs += time.Since(t0).Nanoseconds()
	in.explicitDerivNs += in.derivNs - d0
	switched := false
	var stiffSteps int
	if errors.Is(err, ode.ErrStiff) || errors.Is(err, ode.ErrMinStep) {
		switched = true
		d1 := in.derivNs
		t1 := time.Now()
		var rest ode.Stats
		rest, err = ode.IntegrateStiff(ctx, deriv, timedJac{k: k, j: k.Jac(), in: in}, y, st.T, cfg.TEnd, opts, step)
		in.stiffNs += time.Since(t1).Nanoseconds()
		in.stiffDerivNs += in.derivNs - d1
		stiffSteps = rest.Accepted
		st.Add(rest)
	}
	in.steps += st.Accepted
	in.evals += st.Evals
	in.jacFills += st.JacEvals
	in.factorizations += st.Factorizations
	in.solves += st.Solves
	if switched {
		in.switched++
	}
	// Compare with what sim.Run reported for the same problem.
	g := p.got
	if err != nil || g.Steps != st.Accepted || g.ODE.Evals != st.Evals || g.ODE.Rejected != st.Rejected ||
		g.ODE.Factorizations != st.Factorizations || g.ODE.JacEvals != st.JacEvals ||
		g.ODE.Solves != st.Solves || g.ODE.Switched != switched || g.ODE.StiffSteps != stiffSteps {
		in.mismatches++
		if in.firstMismatch == "" {
			in.firstMismatch = fmt.Sprintf("replay steps=%d evals=%d rejected=%d fact=%d switched=%v err=%v; sim.Run steps=%d evals=%d rejected=%d fact=%d switched=%v",
				st.Accepted, st.Evals, st.Rejected, st.Factorizations, switched, err,
				g.Steps, g.ODE.Evals, g.ODE.Rejected, g.ODE.Factorizations, g.ODE.Switched)
		}
	}
}

// clockCost measures one time.Now call, the replay's unit of overhead.
func clockCost() time.Duration {
	const n = 200000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		time.Now()
	}
	return time.Since(t0) / n
}

// tracedRun is the outcome of a traced run.
type tracedRun struct {
	result
	w        *workload
	spans    []span
	reqCRC   []uint32
	respCRC  []uint32
	counters map[string]float64 // work counters that must repeat exactly
	lines    []string
}

func (t *tracedRun) report(out io.Writer) {
	fmt.Fprintf(out, "perfbench %s traced: %d requests, %d failed\n", t.w.name, t.Attempted, t.Failed)
	for _, l := range t.lines {
		fmt.Fprintln(out, "  "+l)
	}
}

// writeSpans writes the spans as JSON lines under dir.
func (t *tracedRun) writeSpans(dir, name string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	t.lines = append(t.lines, fmt.Sprintf("spans: %d written to %s", len(t.spans), path))
	return nil
}

// runTraced serves the first n requests of the seed's stream through the
// handler untraced, replays the same n requests layer by layer under
// spans, repeats every ODE run through the integrate replay, and checks
// the served replies against the replay's direct results.
func runTraced(w *workload, ds []design, seed int64, n int) (*tracedRun, error) {
	s, c, err := setup(w, ds)
	if err != nil {
		return nil, err
	}
	defer stop(s)
	if err := c.openSpill(); err != nil {
		return nil, err
	}
	runtime.GC()
	st := newStream(w, seed)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = st.next()
	}
	before := s.Registry().Snapshot()
	outs := make([]outcome, n)
	var served time.Duration
	for i, r := range reqs {
		outs[i] = c.do(r)
		served += outs[i].lat
	}
	reg := delta(before, s.Registry().Snapshot())

	runtime.GC()
	rp := newReplay(ds)
	rp.tr.t0 = time.Now()
	for _, r := range reqs {
		if err := rp.request(r); err != nil {
			return nil, err
		}
	}
	var tracedWall time.Duration
	for _, sp := range rp.tr.spans {
		if sp.Parent < 0 {
			tracedWall += time.Duration(sp.End - sp.Start)
		}
	}

	var in integ
	ctx := context.Background()
	var simODE time.Duration
	for _, p := range rp.odes {
		simODE += time.Duration(p.got.WallSeconds * 1e9)
		in.integrate(ctx, p)
	}

	t := &tracedRun{w: w, spans: rp.tr.spans}
	verify(c, outs, func(r request) (finals, error) {
		f, ok := rp.want[r.ID]
		if !ok {
			return nil, fmt.Errorf("no replay result")
		}
		return f, nil
	})
	if err := c.closeSpill(); err != nil {
		return nil, err
	}
	var hits, sims, jobs int
	var queued, running time.Duration
	for _, o := range outs {
		if o.fail != "" {
			t.Failed++
			t.lines = append(t.lines, fmt.Sprintf("failure: request %d (%s): %s", o.req.ID, o.req.Class, o.fail))
		}
		if o.req.Spec.Job {
			jobs++
			queued += o.queued
			running += o.running
		} else {
			sims++
			if o.hit {
				hits++
			}
		}
		t.reqCRC = append(t.reqCRC, crcOf(o.req.Spec.body(ds)))
		t.respCRC = append(t.respCRC, o.crc)
	}
	t.Attempted = n
	t.Correct = t.Failed == 0

	self := rp.tr.selfTimes()
	perReq := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / float64(n) }
	var covered time.Duration
	for name, d := range self {
		// kernel.compile is left out: sim.Run and sim.RunMany compile again
		// inside their own spans.
		if name != "request" && name != "kernel.compile" {
			covered += d
		}
	}
	var odeRuns, switched, derivEvals, jacFills, steps, rejected, stiffSteps, fact, solves int
	for _, p := range rp.odes {
		odeRuns++
		if p.got.ODE.Switched {
			switched++
		}
		derivEvals += p.got.ODE.Evals
		jacFills += p.got.ODE.JacEvals
		steps += p.got.Steps
		rejected += p.got.ODE.Rejected
		stiffSteps += p.got.ODE.StiffSteps
		fact += p.got.ODE.Factorizations
		solves += p.got.ODE.Solves
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	firings := float64(rp.ks.Selects())
	ms := func(ns int64) float64 { return perReq(time.Duration(ns)) }
	m := map[string]metric{
		"server.decode_ms":            {perReq(self["server.decode"]), "ms"},
		"server.canon_ms":             {perReq(self["server.canon"]), "ms"},
		"server.encode_ms":            {perReq(self["server.encode"]), "ms"},
		"server.response_kb":          {ratio(float64(rp.bytes)/1024, float64(rp.encs)), "KB"},
		"server.cache_hit_share":      {ratio(float64(hits), float64(sims)), "ratio"},
		"crn.parse_ms":                {perReq(self["crn.parse"]), "ms"},
		"kernel.compile_ms":           {perReq(self["kernel.compile"]), "ms"},
		"kernel.deriv_evals":          {float64(derivEvals), "count"},
		"kernel.deriv_ms":             {ms(in.derivNs), "ms"},
		"kernel.jac_fills":            {float64(jacFills), "count"},
		"kernel.jac_fill_ms":          {ms(in.jacNs), "ms"},
		"kernel.exact_recomputes":     {float64(rp.ks.ExactRecomputes + rp.ens.ExactRecomputes), "count"},
		"ode.steps":                   {float64(steps), "count"},
		"ode.rejected":                {float64(rejected), "count"},
		"ode.switched_share":          {ratio(float64(switched), float64(odeRuns)), "ratio"},
		"ode.stiff_steps":             {float64(stiffSteps), "count"},
		"ode.factorizations":          {float64(fact), "count"},
		"ode.factorizations_per_step": {ratio(float64(fact), float64(stiffSteps)), "ratio"},
		"ode.solves":                  {float64(solves), "count"},
		"ode.explicit_self_ms":        {ms(in.explicitNs - in.explicitDerivNs), "ms"},
		"ode.stiff_self_ms":           {ms(in.stiffNs - in.stiffDerivNs - in.jacNs), "ms"},
		"sim.run_ms":                  {perReq(self["sim.run"]), "ms"},
		"sim.firings":                 {firings, "count"},
		"sim.ns_per_firing":           {ratio(float64(rp.ssaNs), firings), "ns"},
		"ensemble.run_ms":             {perReq(self["ensemble.run"]), "ms"},
		"ensemble.lane_steps":         {float64(rp.ens.LaneSteps), "count"},
		"ensemble.occupancy":          {rp.ens.Occupancy(), "ratio"},
		"ensemble.ns_per_lane_step":   {ratio(float64(rp.laneNs), float64(rp.ens.LaneSteps)), "ns"},
		"trace.cells":                 {float64(rp.cells), "count"},
		"batch.points":                {float64(rp.pts), "count"},
		"batch.queued_ms":             {ratio(float64(queued.Nanoseconds())/1e6, float64(jobs)), "ms"},
		"batch.running_ms":            {ratio(float64(running.Nanoseconds())/1e6, float64(jobs)), "ms"},
		"layers.coverage":             {ratio(float64(covered), float64(served)), "ratio"},
		"obs.trace_overhead":          {ratio(float64(tracedWall), float64(served)) - 1, "ratio"},
	}
	t.Metrics = m
	t.counters = map[string]float64{}
	for _, k := range []string{"kernel.deriv_evals", "ode.steps", "ode.factorizations", "sim.firings",
		"ensemble.lane_steps", "batch.points"} {
		t.counters[k] = m[k].Value
	}

	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		t.lines = append(t.lines, fmt.Sprintf("self %-16s %10.3f ms/request", k, perReq(self[k])))
	}
	verdict := "match"
	if in.mismatches > 0 {
		verdict = fmt.Sprintf("MISMATCH on %d runs, first: %s", in.mismatches, in.firstMismatch)
	}
	cc := clockCost()
	calls := in.evals + in.jacFills
	t.lines = append(t.lines,
		fmt.Sprintf("served %d requests in %.3fs of request latency; traced replay %.3fs", n, served.Seconds(), tracedWall.Seconds()),
		fmt.Sprintf("integrate replay of %d ODE runs: steps %d, evals %d, Jacobians %d, factorizations %d, solves %d, switched %d",
			odeRuns, in.steps, in.evals, in.jacFills, in.factorizations, in.solves, in.switched),
		fmt.Sprintf("sim.Run reported:                steps %d, evals %d, Jacobians %d, factorizations %d, solves %d, switched %d: %s",
			steps, derivEvals, jacFills, fact, solves, switched, verdict),
		fmt.Sprintf("integrate replay overhead: %d timed calls x 2 clock reads x %v = %.3fs; replay wall %.3fs vs sim.Run wall %.3fs",
			calls, cc, (time.Duration(2*calls)*cc).Seconds(), time.Duration(in.explicitNs+in.stiffNs).Seconds(), simODE.Seconds()),
	)
	t.lines = append(t.lines, "registry cross-check (handler pass) against the benchmark's counts:",
		fmt.Sprintf("  response-cache hits: registry %g, X-Cache %d", reg[obs.Label("cache_hits_total", "cache", "response")], hits),
		fmt.Sprintf("  ode_stiff_switches_total: registry %g, replay %d of %d ODE runs", reg["ode_stiff_switches_total"], switched, odeRuns),
		fmt.Sprintf("  kernel_ensemble_lane_steps_total: registry %g, replay %d", reg["kernel_ensemble_lane_steps_total"], rp.ens.LaneSteps),
		fmt.Sprintf("  kernel_ensemble_lane_slots_total: registry %g, replay %d", reg["kernel_ensemble_lane_slots_total"], rp.ens.LaneSlots),
		fmt.Sprintf("  kernel_ensemble_blocks_total: registry %g, replay %d", reg["kernel_ensemble_blocks_total"], rp.ens.EnsembleBlocks),
	)
	return t, nil
}
