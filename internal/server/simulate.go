package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/crn"
	"repro/internal/exper"
	"repro/internal/obs"
	"repro/internal/obs/proc"
	"repro/internal/obs/span"
	"repro/internal/ode"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SimulateRequest is the body of POST /v1/simulate. Exactly one of CRN
// (network text in the repository's .crn format) and Experiment (an ID from
// GET /v1/experiments) must be set. Zero-valued options select the same
// defaults as cmd/crnsim: ODE, fast/slow = 100/1, unit 100, horizon/1000
// sampling.
type SimulateRequest struct {
	CRN        string `json:"crn,omitempty"`
	Experiment string `json:"experiment,omitempty"`

	Method      string  `json:"method,omitempty"` // ode (default), ssa
	Solver      string  `json:"solver,omitempty"` // ODE only: auto (default), explicit, stiff
	TEnd        float64 `json:"t_end,omitempty"`  // required in CRN mode
	SampleEvery float64 `json:"sample_every,omitempty"`
	Fast        float64 `json:"fast,omitempty"`
	Slow        float64 `json:"slow,omitempty"`
	Unit        float64 `json:"unit,omitempty"` // ssa only
	Seed        int64   `json:"seed,omitempty"`

	// Runs requests a multi-run ensemble instead of a single trajectory:
	// Runs > 1 (or a non-empty Seeds list) executes the replicates through
	// the SoA ensemble engine and returns per-run final states with
	// across-run mean and standard deviation in Ensemble — no trajectory.
	// CRN mode only.
	Runs int `json:"runs,omitempty"`
	// Seeds pins each run's RNG seed explicitly (its length then sets the
	// run count); when empty, run i derives its seed from Seed the same way
	// sweep jobs do.
	Seeds []int64 `json:"seeds,omitempty"`

	// Record restricts the returned trajectory (or ensemble statistics) to
	// these species, in order. Empty returns every species.
	Record []string `json:"record,omitempty"`

	// TimeoutSeconds shortens the per-request deadline below the server's
	// SimTimeout ceiling; it can never extend it.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`

	// Quick selects the experiment's quick configuration (Experiment mode).
	Quick bool `json:"quick,omitempty"`
}

// SimulateResponse is the body of a successful POST /v1/simulate. CRN mode
// fills the trajectory fields (single run) or Ensemble (runs/seeds set);
// Experiment mode fills Result.
type SimulateResponse struct {
	Method  string             `json:"method,omitempty"`
	Species []string           `json:"species,omitempty"`
	T       []float64          `json:"t,omitempty"`
	Rows    [][]float64        `json:"rows,omitempty"`
	Final   map[string]float64 `json:"final,omitempty"`

	Ensemble *EnsembleSummary  `json:"ensemble,omitempty"`
	Result   *ExperimentResult `json:"result,omitempty"`
}

// EnsembleSummary is the multi-run response shape: per-run final states and
// across-run statistics over the successful runs.
type EnsembleSummary struct {
	Runs   int                `json:"runs"`
	OK     int                `json:"ok"` // runs that completed
	PerRun []RunSummary       `json:"per_run"`
	Mean   map[string]float64 `json:"mean,omitempty"`
	Stddev map[string]float64 `json:"stddev,omitempty"`
}

// RunSummary is one ensemble run's outcome.
type RunSummary struct {
	Seed  int64              `json:"seed"`
	Final map[string]float64 `json:"final,omitempty"`
	Err   string             `json:"error,omitempty"`
}

// ExperimentResult mirrors exper.Result for JSON transport.
type ExperimentResult struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows,omitempty"`
	Figure string     `json:"figure,omitempty"`
	Notes  []string   `json:"notes,omitempty"`
}

// cachedResponse is a finished deterministic response: the exact bytes and
// content type served on the original miss, replayed verbatim on every hit
// so identical requests get byte-identical bodies.
type cachedResponse struct {
	body []byte
}

// decodeRequest parses the JSON body into v with the body-size cap and
// strict field checking; every failure maps to a structured apiError.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return errf(http.StatusRequestEntityTooLarge, CodeTooLarge,
				"request body exceeds the %d-byte limit", tooBig.Limit)
		}
		return errf(http.StatusBadRequest, CodeInvalidRequest, "invalid JSON body: %v", err)
	}
	if dec.More() {
		return errf(http.StatusBadRequest, CodeInvalidRequest, "trailing data after JSON body")
	}
	return nil
}

// loadNetwork parses CRN text through the compiled-network cache and applies
// the species/reaction limits. Parsed networks are immutable while serving
// (simulation state lives in per-run vectors), so cache entries are shared
// across concurrent requests.
func (s *Server) loadNetwork(text string) (*crn.Network, error) {
	sum := sha256.Sum256([]byte(text))
	key := hex.EncodeToString(sum[:])
	if v, ok := s.netCache.get(key); ok {
		return v.(*crn.Network), nil
	}
	net, err := crn.ParseString(text)
	if err != nil {
		return nil, errf(http.StatusBadRequest, CodeInvalidRequest, "%v", err)
	}
	if n, limit := net.NumSpecies(), s.cfg.Limits.MaxSpecies; n > limit {
		return nil, errf(http.StatusUnprocessableEntity, CodeLimitExceeded,
			"network has %d species, limit is %d", n, limit)
	}
	if n, limit := net.NumReactions(), s.cfg.Limits.MaxReactions; n > limit {
		return nil, errf(http.StatusUnprocessableEntity, CodeLimitExceeded,
			"network has %d reactions, limit is %d", n, limit)
	}
	if unused := net.UnusedSpecies(); len(unused) > 0 {
		return nil, errf(http.StatusBadRequest, CodeInvalidRequest,
			"species declared but used by no reaction: %s (typo in a reaction line?)",
			strings.Join(unused, ", "))
	}
	s.netCache.add(key, net)
	return net, nil
}

// simConfig translates the request's options to a sim.Config (defaults
// matching cmd/crnsim) without yet validating them — sim.Run does that.
func (r *SimulateRequest) simConfig(method sim.Method, solver sim.Solver) sim.Config {
	rates := sim.Rates{Fast: r.Fast, Slow: r.Slow}
	if rates == (sim.Rates{}) {
		rates = sim.DefaultRates()
	}
	unit := r.Unit
	if unit == 0 {
		unit = 100
	}
	return sim.Config{
		Method:      method,
		Solver:      solver,
		Rates:       rates,
		TEnd:        r.TEnd,
		SampleEvery: r.SampleEvery,
		Unit:        unit,
		Seed:        r.Seed,
	}
}

// canonicalKey reduces the request to its semantic content and hashes it:
// the parsed network re-rendered in the canonical text format (so comments,
// whitespace and equivalent formatting never split the cache), the resolved
// method name, the effective rates/horizon/sampling/unit, and the seed only
// where it matters (SSA and experiments — the ODE ignores it). The second
// return value reports whether the response is deterministic and therefore
// cacheable: ODE always, SSA only under an explicit non-zero seed,
// experiments always (their tables are functions of (id, quick, seed) by the
// batch engine's determinism guarantee).
func canonicalKey(req *SimulateRequest, method sim.Method, solver sim.Solver, net *crn.Network) (string, bool) {
	cfg := req.simConfig(method, solver)
	canon := struct {
		Kind   string
		Net    string
		Exper  string
		Method string
		Solver string
		TEnd   float64
		Sample float64
		Fast   float64
		Slow   float64
		Unit   float64
		Seed   int64
		Runs   int
		Seeds  []int64
		Record []string
		Quick  bool
	}{
		Method: method.String(),
		TEnd:   cfg.TEnd,
		Sample: cfg.SampleEvery,
		Fast:   cfg.Rates.Fast,
		Slow:   cfg.Rates.Slow,
		Record: req.Record,
	}
	cacheable := true
	if req.Experiment != "" {
		canon.Kind = "exper"
		canon.Exper = req.Experiment
		canon.Seed = req.Seed
		canon.Quick = req.Quick
	} else {
		canon.Kind = "crn"
		canon.Net = net.String()
		canon.Runs = req.Runs
		canon.Seeds = req.Seeds
		// The solver splits the key: explicit and stiff trajectories agree
		// only to tolerance, not bit-for-bit, so they must not share a
		// cached response.
		canon.Solver = cfg.Solver.String()
		if method != sim.ODE {
			canon.Unit = cfg.Unit
			canon.Seed = req.Seed
			// A stochastic response is deterministic — and therefore
			// cacheable — only when its RNG streams are pinned: an explicit
			// seed set, or a non-zero base seed (per-run seeds derive from
			// it deterministically).
			cacheable = req.Seed != 0 || len(req.Seeds) > 0
		}
	}
	b, err := json.Marshal(canon)
	if err != nil {
		return "", false // unreachable: the struct is plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), cacheable
}

// deadline resolves the effective per-request deadline: the server ceiling,
// shortened by a positive timeout_seconds.
func (s *Server) deadline(req float64) time.Duration {
	d := s.cfg.SimTimeout
	if req > 0 {
		if rd := time.Duration(req * float64(time.Second)); rd < d {
			d = rd
		}
	}
	return d
}

// handleSimulate is POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, errf(http.StatusServiceUnavailable, CodeUnavailable, "server is draining"))
		return
	}
	var req SimulateRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if (req.CRN == "") == (req.Experiment == "") {
		writeError(w, errf(http.StatusBadRequest, CodeInvalidRequest,
			"exactly one of crn and experiment must be set"))
		return
	}
	method, err := sim.ParseMethod(req.Method)
	if err != nil {
		writeError(w, errf(http.StatusBadRequest, CodeInvalidRequest, "%v", err))
		return
	}
	solver, err := sim.ParseSolver(req.Solver)
	if err != nil {
		writeError(w, errf(http.StatusBadRequest, CodeInvalidRequest, "%v", err))
		return
	}
	if req.Runs < 0 {
		writeError(w, errf(http.StatusBadRequest, CodeInvalidRequest,
			"runs must be non-negative, got %d", req.Runs))
		return
	}
	if req.Experiment != "" && (req.Runs != 0 || len(req.Seeds) > 0) {
		writeError(w, errf(http.StatusBadRequest, CodeInvalidRequest,
			"runs/seeds apply to CRN mode only (experiments manage their own replication)"))
		return
	}
	if req.Experiment != "" && req.Solver != "" {
		writeError(w, errf(http.StatusBadRequest, CodeInvalidRequest,
			"solver applies to CRN mode only (experiments choose their own solvers)"))
		return
	}

	var net *crn.Network
	if req.CRN != "" {
		if net, err = s.loadNetwork(req.CRN); err != nil {
			writeError(w, err)
			return
		}
	} else if _, ok := exper.ByID(req.Experiment); !ok {
		writeError(w, errf(http.StatusNotFound, CodeNotFound,
			"unknown experiment %q (list them at /v1/experiments)", req.Experiment))
		return
	}

	sp := span.FromContext(r.Context())
	key, cacheable := canonicalKey(&req, method, solver, net)
	if v, ok := s.resCache.get(key); ok {
		sp.SetAttr("cache", "hit")
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("Server-Timing", "cache;desc=hit")
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(v.(cachedResponse).body)
		return
	}

	// A config that can only be a 400 is rejected before it queues for a
	// simulation slot behind running simulations.
	if req.CRN != "" {
		if err := req.simConfig(method, solver).Validate(); err != nil {
			writeError(w, configError(err))
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.TimeoutSeconds))
	defer cancel()
	wait, err := s.acquireSim(ctx)
	if err != nil {
		s.simCanceled.Inc()
		writeError(w, errf(statusForCtx(err), CodeCanceled,
			"request ended while waiting for a simulation slot: %v", err))
		return
	}
	defer s.releaseSim()
	sp.SetAttr("cache", "miss")
	sp.SetAttr("queue_wait_seconds", wait.Seconds())

	// Resource attribution: bracket the simulation with process-global
	// usage readings (CPU time, allocation volume). Like the batch engine's
	// per-job numbers these are approximate under concurrency — see
	// DESIGN.md — but exact in aggregate at quiescence.
	u0 := proc.ReadUsage()
	simStart := time.Now()
	var resp *SimulateResponse
	switch {
	case req.CRN != "" && (req.Runs > 1 || len(req.Seeds) > 0):
		resp, err = s.runEnsemble(ctx, net, &req, method, solver)
	case req.CRN != "":
		resp, err = s.runCRN(ctx, net, &req, method, solver)
	default:
		resp, err = s.runExperiment(ctx, &req)
	}
	simDur := time.Since(simStart)
	du := proc.ReadUsage().Sub(u0)
	sp.SetAttr("req.cpu_seconds", du.CPUSeconds)
	sp.SetAttr("req.alloc_bytes", int64(du.AllocBytes))
	sp.SetAttr("req.allocs", int64(du.AllocObjects))
	s.attrCPU.Add(du.CPUSeconds)
	s.attrAllocs.Add(du.AllocObjects)
	s.attrAllocBytes.Add(du.AllocBytes)
	if err != nil {
		writeError(w, err)
		return
	}
	body, merr := json.Marshal(resp)
	if merr != nil {
		writeError(w, merr)
		return
	}
	if cacheable {
		s.resCache.add(key, cachedResponse{body: body})
	}
	w.Header().Set("X-Cache", "miss")
	// Server-Timing phases in ms, readable straight from browser dev tools:
	// time queued for a sim slot, then time simulating.
	w.Header().Set("Server-Timing", fmt.Sprintf("cache;desc=miss, queue;dur=%.3f, sim;dur=%.3f",
		float64(wait.Microseconds())/1e3, float64(simDur.Microseconds())/1e3))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(body)
}

// runCRN executes one simulation of the parsed network and shapes the
// trajectory response.
func (s *Server) runCRN(ctx context.Context, net *crn.Network, req *SimulateRequest, method sim.Method, solver sim.Solver) (*SimulateResponse, error) {
	cfg := req.simConfig(method, solver)
	// Single runs feed the server registry like ensembles and experiments
	// do, so /metrics reports solver choices and stiff-integration effort
	// (ode_solver_runs_total, ode_stiff_*) for interactive requests too.
	// The observer sees only the run's start and end, so an SSA request
	// still takes the tight loop.
	cfg.Obs = obs.NewRegistryObserver(s.reg)
	tr, err := sim.Run(ctx, net, cfg)
	if err != nil {
		var ce *sim.ConfigError
		if errors.As(err, &ce) {
			return nil, configError(err)
		}
		if cerr := context.Cause(ctx); cerr != nil {
			s.simCanceled.Inc()
			return nil, errf(statusForCtx(cerr), CodeCanceled,
				"simulation interrupted: %v", err)
		}
		if ae := stiffnessError(err, solver); ae != nil {
			return nil, ae
		}
		return nil, errf(http.StatusUnprocessableEntity, CodeSimFailed, "%v", err)
	}
	names, cols, err := recordColumns(tr.Names, tr.Index, req.Record)
	if err != nil {
		return nil, err
	}
	return shapeTrajectory(tr, method, names, cols), nil
}

// stiffnessError recognizes an ODE step-size collapse — the signature of a
// stiff system ground down by an explicit method — and upgrades the opaque
// failure to a structured envelope telling the client which knob to turn.
// Returns nil for every other error.
func stiffnessError(err error, solver sim.Solver) *apiError {
	if !errors.Is(err, ode.ErrMinStep) && !errors.Is(err, ode.ErrMaxSteps) {
		return nil
	}
	hint := `set "solver":"stiff" (or drop the solver field for automatic switching)`
	if solver == sim.SolverStiff {
		// The stiff solver itself gave up: switching won't help.
		hint = "loosen the tolerances or shorten t_end"
	}
	ae := errf(http.StatusUnprocessableEntity, CodeStiffness,
		"the ODE integrator's step size collapsed (%v); the system is likely stiff — %s", err, hint)
	ae.Fields = []errorField{{Field: "solver", Message: hint}}
	return ae
}

// runEnsemble executes a multi-run replicate set of the parsed network
// through sim.RunMany (SoA lane engine, finals only — ensembles return
// statistics, not trajectories) and shapes the per-run summaries.
func (s *Server) runEnsemble(ctx context.Context, net *crn.Network, req *SimulateRequest, method sim.Method, solver sim.Solver) (*SimulateResponse, error) {
	runs := req.Runs
	if runs == 0 {
		runs = len(req.Seeds)
	}
	if len(req.Seeds) > 0 && req.Runs > 1 && len(req.Seeds) != req.Runs {
		return nil, errf(http.StatusBadRequest, CodeInvalidRequest,
			"seeds lists %d entries but runs is %d", len(req.Seeds), req.Runs)
	}
	if limit := s.cfg.Limits.MaxSweepPoints; runs > limit {
		return nil, errf(http.StatusUnprocessableEntity, CodeLimitExceeded,
			"ensemble of %d runs exceeds the %d-run limit", runs, limit)
	}
	cfg := req.simConfig(method, solver)
	// Workers stays 0: the handler already holds a sim slot, so the
	// replicates run inline on this goroutine through shared SoA blocks.
	ens, err := sim.RunMany(ctx, net, sim.BatchConfig{
		Base:       cfg,
		Runs:       runs,
		Seeds:      req.Seeds,
		FinalsOnly: true,
		Metrics:    s.reg,
	})
	if err != nil {
		var ce *sim.ConfigError
		if errors.As(err, &ce) {
			return nil, configError(err)
		}
		if cerr := context.Cause(ctx); cerr != nil {
			s.simCanceled.Inc()
			return nil, errf(statusForCtx(cerr), CodeCanceled,
				"ensemble interrupted: %v", err)
		}
		return nil, errf(http.StatusUnprocessableEntity, CodeSimFailed, "%v", err)
	}
	names, cols, err := recordColumns(ens.Names, ens.Index, req.Record)
	if err != nil {
		return nil, err
	}
	sum := &EnsembleSummary{
		Runs:   ens.Runs(),
		OK:     ens.OK(),
		PerRun: make([]RunSummary, ens.Runs()),
		Mean:   project(ens.Mean(), names, cols),
		Stddev: project(ens.Stddev(), names, cols),
	}
	for i := range sum.PerRun {
		rs := RunSummary{Seed: runSeed(req, cfg, i), Final: project(ens.Finals[i], names, cols)}
		if ens.Errs[i] != nil {
			rs.Err = ens.Errs[i].Error()
		}
		sum.PerRun[i] = rs
	}
	return &SimulateResponse{
		Method:   method.String(),
		Species:  append([]string(nil), names...),
		Ensemble: sum,
	}, nil
}

// recordColumns resolves a request's record list against a result's species
// columns, given their names and name lookup: the reported names and, in
// the same order, their column indexes. An empty record reports every
// species in column order; a name outside the network is a 400.
func recordColumns(species []string, index func(string) (int, bool), record []string) ([]string, []int, error) {
	if len(record) == 0 {
		cols := make([]int, len(species))
		for i := range cols {
			cols[i] = i
		}
		return species, cols, nil
	}
	cols := make([]int, len(record))
	for j, name := range record {
		i, ok := index(name)
		if !ok {
			return nil, nil, errf(http.StatusBadRequest, CodeInvalidRequest,
				"record species %q not in the network", name)
		}
		cols[j] = i
	}
	return record, cols, nil
}

// project maps a state row onto the recorded species by name; a nil row
// (a failed run) projects to nil.
func project(row []float64, names []string, cols []int) map[string]float64 {
	if row == nil {
		return nil
	}
	m := make(map[string]float64, len(cols))
	for j, c := range cols {
		m[names[j]] = row[c]
	}
	return m
}

// runSeed replicates sim.RunMany's per-run seed assignment so responses can
// report each run's effective seed: an explicit Seeds entry wins, stochastic
// runs otherwise derive from the base seed exactly like sweep-job points,
// and the ODE (which never draws) keeps the base seed.
func runSeed(req *SimulateRequest, cfg sim.Config, i int) int64 {
	if len(req.Seeds) > 0 {
		return req.Seeds[i]
	}
	if cfg.Method != sim.ODE {
		return batch.DeriveSeed(cfg.Seed, i)
	}
	return cfg.Seed
}

// shapeTrajectory projects a trace onto the response type, restricted to
// the recorded species columns.
func shapeTrajectory(tr *trace.Trace, method sim.Method, names []string, cols []int) *SimulateResponse {
	rows := make([][]float64, len(tr.Rows))
	for k, row := range tr.Rows {
		out := make([]float64, len(cols))
		for j, c := range cols {
			out[j] = row[c]
		}
		rows[k] = out
	}
	var final map[string]float64
	if len(tr.Rows) > 0 {
		final = project(tr.Rows[len(tr.Rows)-1], names, cols)
	}
	return &SimulateResponse{
		Method:  method.String(),
		Species: append([]string(nil), names...),
		T:       tr.T,
		Rows:    rows,
		Final:   final,
	}
}

// runExperiment executes a registered reproduction experiment and shapes its
// table response. Grid experiments fan across a batch pool of
// MaxConcurrentSims workers; every simulation the experiment runs, grid or
// scalar, reports into the server registry as it ends.
func (s *Server) runExperiment(ctx context.Context, req *SimulateRequest) (*SimulateResponse, error) {
	e, _ := exper.ByID(req.Experiment) // existence checked by the handler
	res, err := e.Run(ctx, exper.Config{
		Quick:   req.Quick,
		Seed:    req.Seed,
		Workers: s.cfg.MaxConcurrentSims,
		Metrics: s.reg,
	})
	if err != nil {
		if cerr := context.Cause(ctx); cerr != nil {
			s.simCanceled.Inc()
			return nil, errf(statusForCtx(cerr), CodeCanceled,
				"experiment interrupted: %v", err)
		}
		return nil, errf(http.StatusUnprocessableEntity, CodeSimFailed, "%v", err)
	}
	return &SimulateResponse{Result: &ExperimentResult{
		ID:     res.ID,
		Title:  res.Title,
		Header: res.Header,
		Rows:   res.Rows,
		Figure: res.Figure,
		Notes:  res.Notes,
	}}, nil
}

// statusForCtx maps a context termination to an HTTP status: deadline expiry
// is the server's own ceiling (504), everything else means the client went
// away (499-style; 400 is the closest standard code net/http can still
// deliver, but by then the client is usually gone anyway).
func statusForCtx(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
}

// handleExperiments is GET /v1/experiments: the registered experiment
// descriptors, ready to feed back into POST /v1/simulate.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type descriptor struct {
		ID    string   `json:"id"`
		Title string   `json:"title"`
		Tags  []string `json:"tags"`
	}
	regs := exper.Registry()
	out := make([]descriptor, len(regs))
	for i, d := range regs {
		out[i] = descriptor{ID: d.ID, Title: d.Title, Tags: d.Tags}
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}
