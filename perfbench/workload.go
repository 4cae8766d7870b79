package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/server"
	"repro/internal/sim"
)

// spec is one request's parameters without the network text, which the
// body generator splices in from the design table. Keeping specs small lets
// the stream remember every request it issued while bodies are built only
// when sent.
type spec struct {
	Job    bool
	Design int
	Method string // "" (ODE) or "ssa"
	TEnd   float64
	Fast   float64 // zero on ratio sweeps, which leave the base rates unset
	Unit   float64
	Seed   int64
	Runs   int
	Ratios []float64
	Record []string
}

// body renders the request exactly as a client would send it.
func (s spec) body(ds []design) []byte {
	var v any
	if s.Job {
		v = server.JobRequest{CRN: ds[s.Design].text, Method: s.Method, TEnd: s.TEnd,
			Unit: s.Unit, Seed: s.Seed, Runs: s.Runs, Ratios: s.Ratios, Record: s.Record}
	} else {
		r := server.SimulateRequest{CRN: ds[s.Design].text, Method: s.Method, TEnd: s.TEnd,
			Unit: s.Unit, Seed: s.Seed, Runs: s.Runs, Record: s.Record}
		if s.Fast > 0 {
			r.Fast, r.Slow = s.Fast, 1
		}
		v = r
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return b
}

// config is the sim.Config the server derives from the request, with the
// server's defaults filled in the same way (fast/slow 100/1, unit 100).
func (s spec) config() sim.Config {
	method, err := sim.ParseMethod(s.Method)
	if err != nil {
		panic(err) // the generators only emit valid methods
	}
	cfg := sim.Config{Method: method, Rates: sim.DefaultRates(), TEnd: s.TEnd, Unit: s.Unit, Seed: s.Seed}
	if s.Fast > 0 {
		cfg.Rates = sim.Rates{Fast: s.Fast, Slow: 1}
	}
	if cfg.Unit == 0 {
		cfg.Unit = 100
	}
	return cfg
}

// ensemble reports whether a simulate request asks for a multi-run reply.
func (s spec) ensemble() bool { return !s.Job && s.Runs > 1 }

// points is the number of sweep points of a job.
func (s spec) points() int {
	runs := s.Runs
	if runs <= 0 {
		runs = 1
	}
	if len(s.Ratios) == 0 {
		return runs
	}
	return runs * len(s.Ratios)
}

// request is one entry of a seeded stream.
type request struct {
	ID     int
	Class  string
	Spec   spec
	Repeat int // ID of the earlier request whose body this one repeats, or -1
}

// class is one kind of request in a workload's deck. A nil gen marks the
// repeat class: it resends the body of a recent fresh request.
//
// gen draws a fresh request from u and v, two numbers in [0, 1) that map to
// the parameters that set the request's cost, and from r for the rest. The
// stream feeds u and v from a per-class Halton sequence with a seeded
// offset, so any prefix of the stream covers each class's cost range
// evenly: a seed changes which requests are sent, not how much work a run
// of a given length holds.
type class struct {
	name string
	n    int // slots per deck
	gen  func(r *rand.Rand, u, v float64) spec
}

// workload is a traffic mix. Requests are dealt from a deck holding each
// class's slot count, shuffled per deck by the seed, so every seed yields
// the same class proportions in every deck-length stretch of the stream.
type workload struct {
	name    string
	deck    []class
	designs []int                 // the distinct networks the workload sends
	warm    func(design int) spec // warm-up request, never sent in the timed phase
	traceN  int                   // requests in one traced replay
}

// repeatWindow bounds how far back a repeat may reach, in fresh requests:
// well inside the server's default 128-entry response cache, so a repeat
// is a hit unless the server misbehaves.
const repeatWindow = 32

// stream deals a workload's requests for one seed.
type stream struct {
	w      *workload
	rng    *rand.Rand
	deck   []int // class index per slot, current deck
	pos    int
	drawn  []int        // fresh requests drawn per class
	offset [][2]float64 // Halton offsets per class
	reqs   []request
	fresh  []int           // IDs of fresh requests, for repeats
	seen   map[uint64]bool // hashes of fresh specs
}

func newStream(w *workload, seed int64) *stream {
	s := &stream{w: w, rng: rand.New(rand.NewSource(seed)), seen: map[uint64]bool{},
		drawn: make([]int, len(w.deck)), offset: make([][2]float64, len(w.deck))}
	for i := range s.offset {
		s.offset[i] = [2]float64{s.rng.Float64(), s.rng.Float64()}
	}
	return s
}

// halton is the radical inverse of j in base b, shifted by off modulo 1.
func halton(j, b int, off float64) float64 {
	x, f := 0.0, 1.0/float64(b)
	for ; j > 0; j /= b {
		x += f * float64(j%b)
		f /= float64(b)
	}
	x += off
	return x - math.Floor(x)
}

// deckDone reports whether the stream stands at a deck boundary.
func (s *stream) deckDone() bool { return s.pos == len(s.deck) }

// next returns the stream's next request.
func (s *stream) next() request {
	if s.pos == len(s.deck) {
		s.deck = s.deck[:0]
		for ci, c := range s.w.deck {
			for k := 0; k < c.n; k++ {
				s.deck = append(s.deck, ci)
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		s.pos = 0
	}
	ci := s.deck[s.pos]
	s.pos++
	req := request{ID: len(s.reqs), Class: s.w.deck[ci].name, Repeat: -1}
	if s.w.deck[ci].gen == nil && len(s.fresh) > 0 {
		window := s.fresh
		if len(window) > repeatWindow {
			window = window[len(window)-repeatWindow:]
		}
		src := s.reqs[window[s.rng.Intn(len(window))]]
		req.Spec, req.Repeat = src.Spec, src.ID
	} else {
		if s.w.deck[ci].gen == nil {
			// A repeat dealt before any fresh request: send the deck's
			// first fresh class instead.
			for ci = 0; s.w.deck[ci].gen == nil; ci++ {
			}
			req.Class = s.w.deck[ci].name
		}
		// Fresh bodies are distinct; redraw the rare collision.
		for {
			j := s.drawn[ci]
			s.drawn[ci]++
			off := s.offset[ci]
			req.Spec = s.w.deck[ci].gen(s.rng, halton(j, 2, off[0]), halton(j, 3, off[1]))
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", req.Spec)
			key := h.Sum64()
			if !s.seen[key] {
				s.seen[key] = true
				break
			}
		}
		s.fresh = append(s.fresh, req.ID)
	}
	s.reqs = append(s.reqs, req)
	return req
}

// scale maps u in [0, 1) onto [lo, hi], rounded to step so bodies carry
// short decimal literals.
func scale(u, lo, hi, step float64) float64 {
	return math.Round((lo+u*(hi-lo))/step) * step
}

// explicitRatios lists, per design, the fast/slow ratios ode-traj and the
// ODE sweeps draw from. Each was checked at t_end 10 to keep the automatic
// solver on the explicit integrator over the whole horizon; between
// neighbouring ratios its stiffness detector can fire, so requests use
// these values only and ode.switched_share stays 0.
var explicitRatios = map[int][]float64{
	dClock: {100, 109, 119, 128, 137, 147, 156, 165, 175, 184, 193, 203, 212, 221, 231, 240},
	dMA2:   {100, 108, 115, 123, 131, 138, 146, 154, 161, 169, 177, 184, 192, 200, 207, 215},
	dRing2: {100, 104, 109, 113, 117, 122, 126, 130, 135, 139, 143, 148, 152, 156, 161, 165},
	dMA4:   {100, 107, 115, 122, 129, 137, 144, 151, 159, 166, 173, 181, 188, 195, 203, 210},
	dRing4: {100, 103, 106, 109, 112, 115, 118, 121, 124, 127, 130, 133, 136, 139, 142, 145},
	dCnt2:  {160, 182, 206, 228, 250, 272, 298, 320, 342, 364, 388, 410, 432, 454, 478, 500},
	dRing8: {100, 102, 105, 107, 109, 112, 114, 116, 119, 121, 123, 126, 128, 130, 133, 135},
}

// pick maps u in [0, 1) onto an element of xs.
func pick(xs []float64, u float64) float64 { return xs[int(u*float64(len(xs)))] }

// odeTraj generates full-trajectory ODE requests on design d at a ratio
// from its explicit list. Each body records every species, in an order
// drawn per request: the reply carries the full trajectory either way, and
// the drawn order keeps every body distinct, so a fresh request misses the
// response cache, while the ratio alone sets the work.
func odeTraj(ds []design, d int) func(*rand.Rand, float64, float64) spec {
	return func(r *rand.Rand, u, _ float64) spec {
		names := ds[d].net.SpeciesNames()
		rec := make([]string, len(names))
		for i, j := range r.Perm(len(names)) {
			rec[i] = names[j]
		}
		return spec{Design: d, TEnd: 10, Fast: pick(explicitRatios[d], u), Record: rec}
	}
}

// outputs draws two or three of design d's register outputs or clock
// phases to record.
func outputs(r *rand.Rand, d design) []string {
	k := 2 + r.Intn(2)
	rec := make([]string, k)
	for i, j := range r.Perm(len(d.record))[:k] {
		rec[i] = d.record[j]
	}
	return rec
}

// stiffAuto generates requests for one stiff grid problem, each recording
// outputs drawn per request. The drawn lists keep every body distinct
// without changing the integration, so a seed changes the order and the
// lists, not the work.
func stiffAuto(ds []design, d int, fast, tEnd float64) func(*rand.Rand, float64, float64) spec {
	return func(r *rand.Rand, _, _ float64) spec {
		return spec{Design: d, TEnd: tEnd, Fast: fast, Record: outputs(r, ds[d])}
	}
}

// ssaSingle and ssaEnsemble generate seeded stochastic requests on design
// d; every seed is fresh, so no reply repeats. The system size sets a
// single run's firing count; the run count sets an ensemble's.
func ssaSingle(d int) func(*rand.Rand, float64, float64) spec {
	return func(r *rand.Rand, u, v float64) spec {
		return spec{Design: d, Method: "ssa", TEnd: 10, Fast: scale(v, 100, 300, 0.1),
			Unit: scale(u, 150, 250, 1), Seed: 1 + r.Int63n(1<<40)}
	}
}

func ssaEnsemble(d int) func(*rand.Rand, float64, float64) spec {
	return func(r *rand.Rand, u, v float64) spec {
		return spec{Design: d, Method: "ssa", TEnd: 10, Fast: scale(v, 100, 300, 0.1),
			Unit: 75, Seed: 1 + r.Int63n(1<<40), Runs: int(scale(u, 8, 32, 1))}
	}
}

// sweepRatios draws four ratios from the accuracy-limited range 100-1000,
// one from each quarter. An SSA run's cost grows with the ratio and each
// ratio is a lane block of its own, so one ratio per quarter gives every
// job the same spread of block costs over the batch pool's workers.
func sweepRatios(r *rand.Rand) []float64 {
	out := make([]float64, 4)
	for k := range out {
		out[k] = scale((float64(k)+r.Float64())/4, 100, 1000, 1)
	}
	return out
}

// ssaSweep generates runs x ratios SSA jobs on design d.
//
// Sweep jobs record a few outputs and keep SSA systems small. The server
// keeps the last 256 finished jobs, so the peak resident set grows with
// the jobs a run finishes until it has finished about 300. With every
// species recorded and systems twice this size, a run on a slowed host
// finished fewer, and the peak then depended on the host's speed.
func ssaSweep(ds []design, d int) func(*rand.Rand, float64, float64) spec {
	return func(r *rand.Rand, u, v float64) spec {
		return spec{Job: true, Design: d, Method: "ssa", TEnd: 10, Runs: int(scale(u, 4, 8, 1)),
			Unit: scale(v, 50, 100, 1), Seed: 1 + r.Int63n(1<<40), Record: outputs(r, ds[d]),
			Ratios: sweepRatios(r)}
	}
}

// heavySweep generates the SSA jobs that set sweep-jobs' latency_tail_ms:
// 16 runs at unit 100 on design d, four ratios. Their cost varies little
// and lies above every other class's, and one job in 22 is heavy, so a
// 40 s run has five to eight dozen of them and its 11th-largest latency
// falls among them rather than on the edge of a spread-out class.
func heavySweep(ds []design, d int) func(*rand.Rand, float64, float64) spec {
	light := ssaSweep(ds, d)
	return func(r *rand.Rand, u, v float64) spec {
		s := light(r, u, v)
		s.Runs, s.Unit = 16, 100
		return s
	}
}

// odeSweep generates single-run ODE sweeps on design d at four ratios from
// its explicit list, one from each quarter.
func odeSweep(ds []design, d int) func(*rand.Rand, float64, float64) spec {
	return func(r *rand.Rand, u, _ float64) spec {
		s := spec{Job: true, Design: d, TEnd: 10, Runs: 1, Seed: 1 + r.Int63n(1<<40), Record: outputs(r, ds[d])}
		xs := explicitRatios[d]
		for k := 0; k < 4; k++ {
			s.Ratios = append(s.Ratios, pick(xs[k*len(xs)/4:(k+1)*len(xs)/4], u))
		}
		return s
	}
}

// workloads returns the benchmark's traffic mixes, by name. NOTES.md
// records why each exists and which layers it loads and bypasses.
func workloads(ds []design) map[string]*workload {
	odeWarm := func(d int) spec { return spec{Design: d, TEnd: 0.5, Fast: 100} }
	ssaWarm := func(d int) spec { return spec{Design: d, Method: "ssa", TEnd: 0.5, Fast: 100, Unit: 20, Seed: 1} }
	// stiff-auto sends a fixed grid of nine problems because the automatic
	// solver's hand-off is erratic from one ratio to the next. Three of them
	// hand off to the stiff integrator; the rest run the explicit method at
	// its stability limit. Four cheap problems, the ring4 hand-off as the
	// median request, and four dear ones that cost about the same: the gaps
	// of 2x around the median and the four dear problems keep the median
	// and the tail on the same problems through host slowdowns and at any
	// deck count from three up. The median problem takes three slots of the
	// deck, so that a run's median is the middle of several samples of it.
	var stiffDeck []class
	for _, p := range []struct {
		d          int
		fast, tEnd float64
		slots      int
	}{
		{dClock, 1e4, 3, 1}, {dClock, 3e4, 3, 1}, {dMA4, 3e4, 10, 1}, {dClock, 1e4, 10, 1},
		{dRing4, 3e4, 10, 3},
		{dRing2, 3e4, 3, 1}, {dCnt2, 3e4, 10, 1}, {dRing2, 1e4, 10, 1}, {dRing4, 1e4, 5, 1},
	} {
		name := fmt.Sprintf("%s@%g/%g", ds[p.d].name, p.fast, p.tEnd)
		stiffDeck = append(stiffDeck, class{name, p.slots, stiffAuto(ds, p.d, p.fast, p.tEnd)})
	}
	ws := []*workload{
		{
			name: "ode-traj",
			// Seven cheaper slots, six ring2 and ma4 slots, which cost about
			// the same, and seven dearer ones: the median request falls in
			// the middle of the ring2/ma4 group rather than on its edge.
			deck: []class{
				{"repeat", 5, nil},
				{"clock", 1, odeTraj(ds, dClock)},
				{"ma2", 1, odeTraj(ds, dMA2)},
				{"ring2", 5, odeTraj(ds, dRing2)},
				{"ma4", 1, odeTraj(ds, dMA4)},
				{"ring4", 4, odeTraj(ds, dRing4)},
				{"cnt2", 1, odeTraj(ds, dCnt2)},
				{"ring8", 2, odeTraj(ds, dRing8)},
			},
			designs: []int{dClock, dMA2, dRing2, dMA4, dRing4, dCnt2, dRing8},
			warm:    odeWarm,
			traceN:  300,
		},
		{
			name:    "stiff-auto",
			deck:    stiffDeck,
			designs: []int{dClock, dRing2, dRing4, dMA4, dCnt2},
			warm:    func(d int) spec { return spec{Design: d, TEnd: 0.2, Fast: 1e4} },
			traceN:  11,
		},
		{
			name: "ssa-serve",
			deck: []class{
				// Single runs cost ring2 < ma4 < ring4 < cnt2; the weights put
				// the median request in the middle of the cnt2 singles, away
				// from the gaps between designs.
				{"single-ring2", 1, ssaSingle(dRing2)},
				{"single-ma4", 1, ssaSingle(dMA4)},
				{"single-ring4", 2, ssaSingle(dRing4)},
				{"single-cnt2", 4, ssaSingle(dCnt2)},
				{"ensemble-ring2", 1, ssaEnsemble(dRing2)},
				{"ensemble-ring4", 1, ssaEnsemble(dRing4)},
				{"ensemble-cnt2", 1, ssaEnsemble(dCnt2)},
				{"ensemble-ma4", 1, ssaEnsemble(dMA4)},
			},
			designs: []int{dRing2, dRing4, dCnt2, dMA4},
			warm:    ssaWarm,
			traceN:  300,
		},
		{
			name: "sweep-jobs",
			// The median job falls in the middle of the fifteen light SSA
			// slots; the heavy slot holds the tail.
			deck: []class{
				{"ssa-ring2", 5, ssaSweep(ds, dRing2)},
				{"ssa-ring4", 5, ssaSweep(ds, dRing4)},
				{"ssa-ma4", 5, ssaSweep(ds, dMA4)},
				{"ssa-cnt2-heavy", 1, heavySweep(ds, dCnt2)},
				{"ode-clock", 3, odeSweep(ds, dClock)},
				{"ode-ring2", 3, odeSweep(ds, dRing2)},
			},
			designs: []int{dRing2, dRing4, dCnt2, dMA4, dClock},
			warm:    ssaWarm,
			traceN:  88,
		},
	}
	out := make(map[string]*workload, len(ws))
	for _, w := range ws {
		out[w.name] = w
	}
	return out
}
