package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim"
	"repro/internal/trace"
)

// JobRequest is the body of POST /v1/jobs: a parameter sweep of one CRN,
// executed through the multi-run engine (sim.RunMany). The sweep is the
// cross product of Ratios (fast/slow rate ratios; empty means the single
// Fast/Slow pair) and Runs replicates (default 1), each replicate receiving
// a deterministic seed derived from Seed — the whole sweep is reproducible
// from the request alone. Stochastic sweeps without watchers share SoA
// ensemble blocks (several points per kernel pass); watched or deterministic
// points run one at a time through sim.Run on the batch pool.
type JobRequest struct {
	CRN string `json:"crn"`

	Method      string  `json:"method,omitempty"`
	TEnd        float64 `json:"t_end"`
	SampleEvery float64 `json:"sample_every,omitempty"`
	Fast        float64 `json:"fast,omitempty"`
	Slow        float64 `json:"slow,omitempty"`
	Unit        float64 `json:"unit,omitempty"`
	Seed        int64   `json:"seed,omitempty"`

	Runs   int       `json:"runs,omitempty"`   // replicates per ratio; default 1
	Ratios []float64 `json:"ratios,omitempty"` // fast/slow ratios to sweep (slow stays fixed)

	// Record restricts the reported finals to these species (default: all).
	Record []string `json:"record,omitempty"`

	// TimeoutSeconds bounds each unit of sweep work (an ensemble block or a
	// single point), capped by the server ceiling.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`

	// Watch attaches the default semantic watchers (clock edges, dominant
	// phase) to every sweep point; their events stream live over
	// GET /v1/jobs/{id}/events and /v1/stream. Watched points carry per-run
	// watchers and therefore run one lane wide, outside shared blocks.
	Watch bool `json:"watch,omitempty"`
	// ClockHealth, when set, attaches the clock-health analyzer to every
	// sweep point: phase overlap, indicator leakage, period jitter and duty
	// drift raise structured alerts on the event stream, the span trace and
	// the clock_alerts_total metric.
	ClockHealth *ClockHealthSpec `json:"clock_health,omitempty"`
}

// ClockHealthSpec is the JSON shape of the obs.ClockHealth analyzer config:
// the phase groups in cycle order, optionally the absence indicators aligned
// with them, and the rule thresholds (zero values select the analyzer's
// documented defaults; negative values disable the respective rule).
type ClockHealthSpec struct {
	Phases     [][]string `json:"phases"`               // species per phase group, cycle order
	Names      []string   `json:"names,omitempty"`      // optional display names per group
	Indicators []string   `json:"indicators,omitempty"` // absence indicators aligned with Phases
	Threshold  float64    `json:"threshold"`            // occupancy threshold, required
	LeakEps    float64    `json:"leak_eps,omitempty"`
	MaxJitter  float64    `json:"max_jitter,omitempty"`
	MaxDuty    float64    `json:"max_duty,omitempty"`
	MinCycles  int        `json:"min_cycles,omitempty"`
}

// watcher builds a fresh analyzer from the spec. Watchers keep per-run state,
// so every sweep point gets its own instance.
func (c *ClockHealthSpec) watcher() *obs.ClockHealth {
	groups := make([]obs.PhaseGroup, len(c.Phases))
	for i, sp := range c.Phases {
		name := fmt.Sprintf("phase%d", i)
		if i < len(c.Names) && c.Names[i] != "" {
			name = c.Names[i]
		}
		groups[i] = obs.PhaseGroup{Name: name, Species: sp}
	}
	return &obs.ClockHealth{
		Phases: groups, Indicators: c.Indicators, Threshold: c.Threshold,
		LeakEps: c.LeakEps, MaxJitter: c.MaxJitter, MaxDuty: c.MaxDuty,
		MinCycles: c.MinCycles,
	}
}

// PointResult is one sweep point's outcome.
type PointResult struct {
	Index int                `json:"index"`
	Ratio float64            `json:"ratio,omitempty"` // fast/slow used (ratio sweeps)
	Seed  int64              `json:"seed"`
	Final map[string]float64 `json:"final,omitempty"`
	Err   string             `json:"error,omitempty"`
}

// JobStatus is the body of GET /v1/jobs/{id}. Results appear only once the
// job has drained (State done/failed/canceled); progress counters are live.
// A job is "queued" from admission until its first sweep point acquires a
// simulation slot, then "running" until it reaches a terminal state — and a
// job canceled while still queued goes terminal like any other.
type JobStatus struct {
	ID        string        `json:"id"`
	State     string        `json:"state"` // queued, running, done, failed, canceled
	Created   time.Time     `json:"created"`
	Completed int           `json:"completed"`
	Failed    int           `json:"failed"`
	Total     int           `json:"total"`
	Error     string        `json:"error,omitempty"`
	Results   []PointResult `json:"results,omitempty"`
}

// job is one accepted sweep, launched asynchronously through sim.RunMany.
// results is written by the engine at disjoint indexes while it runs and err
// once before done closes; both are read only after done has closed, so
// they need no lock, and everything a status poll reads concurrently is
// either immutable or atomic. Progress has point (not work-item)
// granularity — a laned ensemble block reports each of its lanes as it
// retires — and points skipped by cancellation count toward neither
// completed nor failed.
type job struct {
	id      string
	created time.Time
	total   int
	results []PointResult

	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Bool
	finished  atomic.Bool
	started   atomic.Bool  // first sweep point began executing
	pending   atomic.Int64 // sweep points not yet finished (gauge bookkeeping)

	cancel context.CancelCauseFunc // asks the engine to stop; does not block
	// done closes once the engine has drained and the job's counters,
	// gauges and retention have settled: it alone decides "terminal".
	done chan struct{}
	err  error // the sweep's final error, written once before done closes
}

// isDone reports whether the job has drained.
func (j *job) isDone() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// terminal reports whether a status is one of the three end states.
func (st JobStatus) terminal() bool {
	return st.State == "done" || st.State == "failed" || st.State == "canceled"
}

// status snapshots the job for a response.
func (j *job) status(includeResults bool) JobStatus {
	st := JobStatus{ID: j.id, Created: j.created, State: "running"}
	if !j.started.Load() {
		st.State = "queued"
	}
	st.Completed, st.Failed, st.Total = int(j.completed.Load()), int(j.failed.Load()), j.total
	if j.isDone() {
		switch {
		case j.canceled.Load():
			st.State = "canceled"
		case j.err != nil && st.Completed == 0:
			st.State = "failed"
		default:
			st.State = "done"
		}
		if j.err != nil {
			st.Error = j.err.Error()
		}
		if includeResults {
			st.Results = j.results
		}
	}
	return st
}

// jobStore owns every accepted job: admission (active-job limit), lookup,
// retention of finished jobs, and drain-on-shutdown.
type jobStore struct {
	s *Server

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // creation order; finished jobs evict oldest-first
	seq    int64
	active int
}

func newJobStore(s *Server) *jobStore {
	return &jobStore{s: s, jobs: make(map[string]*job)}
}

// get looks a job up by id.
func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// submit validates the sweep, launches it through sim.RunMany and registers
// the job. parent, when non-nil, is the submitting request's span: the job
// runs under a child span of it, so the trace of the POST shows the whole
// asynchronous fan-out — per-work-item batch.job spans for single points,
// sim.ensemble block spans for laned ones.
func (st *jobStore) submit(req *JobRequest, parent *span.Span) (*job, error) {
	s := st.s
	if req.CRN == "" {
		return nil, errf(http.StatusBadRequest, CodeInvalidRequest, "crn is required")
	}
	method, err := sim.ParseMethod(req.Method)
	if err != nil {
		return nil, errf(http.StatusBadRequest, CodeInvalidRequest, "%v", err)
	}
	net, err := s.loadNetwork(req.CRN)
	if err != nil {
		return nil, err
	}
	if req.ClockHealth != nil {
		// Fail fast with a 400 instead of failing every sweep point at Bind.
		if err := req.ClockHealth.watcher().Bind(net.SpeciesNames()); err != nil {
			return nil, errf(http.StatusBadRequest, CodeInvalidRequest, "clock_health: %v", err)
		}
	}
	// Sweep finals come back as an ensemble whose columns are the network's
	// species in order, so the network resolves the recorded columns.
	names, cols, err := recordColumns(net.SpeciesNames(), net.SpeciesIndex, req.Record)
	if err != nil {
		return nil, err
	}
	runs := req.Runs
	if runs <= 0 {
		runs = 1
	}
	points := runs
	if len(req.Ratios) > 0 {
		points = runs * len(req.Ratios)
		for _, ratio := range req.Ratios {
			if ratio < 1 {
				return nil, errf(http.StatusBadRequest, CodeInvalidRequest,
					"ratio %g below 1 inverts the fast/slow dichotomy", ratio)
			}
		}
	}
	if limit := s.cfg.Limits.MaxSweepPoints; points > limit {
		return nil, errf(http.StatusUnprocessableEntity, CodeLimitExceeded,
			"sweep has %d points, limit is %d", points, limit)
	}
	base := SimulateRequest{
		Method: req.Method, TEnd: req.TEnd, SampleEvery: req.SampleEvery,
		Fast: req.Fast, Slow: req.Slow, Unit: req.Unit,
	}
	baseCfg := base.simConfig(method, sim.SolverAuto)
	baseCfg.Seed = req.Seed
	if err := baseCfg.Validate(); err != nil {
		return nil, configError(err)
	}
	baseRates := baseCfg.Rates

	j := &job{created: time.Now(), total: points, done: make(chan struct{})}
	j.results = make([]PointResult, points)
	pointSeed := func(i int) int64 { return batch.DeriveSeed(req.Seed, i) }
	pointRatio := func(i int) float64 {
		if len(req.Ratios) == 0 {
			return 0
		}
		return req.Ratios[i/runs]
	}
	for i := range j.results {
		// Prefill identity and a "skipped" marker: points that never start
		// because the job is canceled keep an explanatory entry, and points
		// that do run overwrite it.
		j.results[i] = PointResult{
			Index: i, Ratio: pointRatio(i), Seed: pointSeed(i),
			Err: "skipped: job ended before this point started",
		}
	}
	j.pending.Store(int64(points))

	// Reserve an admission slot and an id; the job is published to the store
	// once it is fully built and before its engine starts, so status polls
	// never see a half-built job and a job that finishes at once is already
	// in the store when it retires.
	st.mu.Lock()
	if st.active >= s.cfg.Limits.MaxActiveJobs {
		st.mu.Unlock()
		return nil, errf(http.StatusTooManyRequests, CodeUnavailable,
			"%d jobs already active, limit is %d", st.active, s.cfg.Limits.MaxActiveJobs)
	}
	st.seq++
	j.id = fmt.Sprintf("job-%06d", st.seq)
	st.active++
	st.mu.Unlock()

	// The job span ties the asynchronous fan-out into the submit request's
	// trace: every single point's batch.job[i] span and every ensemble
	// block's sim.ensemble span become descendants of this one, and the
	// engine stamps ensemble.* occupancy attributes on it at completion.
	jobSpan := parent.Child("job " + j.id)
	jobSpan.SetAttr("job.id", j.id)
	jobSpan.SetAttr("job.points", points)
	jobSpan.SetAttr("job.method", method.String())
	parent.SetAttr("job.id", j.id)

	pendingG := s.reg.Gauge("server_job_points_pending")
	// Lifecycle gauges: a job is queued from admission until its first point
	// executes, then active until it goes terminal. queued + active together
	// always equal the live (not yet drained) job count.
	jobsQueuedG := s.reg.Gauge("jobs_queued")
	jobsActiveG := s.reg.Gauge("jobs_active")
	s.reg.Counter("server_jobs_submitted_total").Inc()
	pendingG.Add(float64(points))
	jobsQueuedG.Add(1)

	watched := req.Watch || req.ClockHealth != nil
	bc := sim.BatchConfig{
		Base:       baseCfg,
		Runs:       points,
		Workers:    s.cfg.MaxConcurrentSims,
		FinalsOnly: true,
		Metrics:    s.reg,
		JobTimeout: s.deadline(req.TimeoutSeconds),
		Gate: func(ctx context.Context) (func(), error) {
			if _, err := s.acquireSim(ctx); err != nil {
				return nil, err
			}
			// The first point to win a simulation slot flips the job
			// queued -> running, exactly once.
			if j.started.CompareAndSwap(false, true) {
				jobsQueuedG.Add(-1)
				jobsActiveG.Add(1)
			}
			return s.releaseSim, nil
		},
		Configure: func(i int, cfg *sim.Config) {
			if ratio := pointRatio(i); ratio > 0 {
				cfg.Rates = sim.Rates{Fast: baseRates.Slow * ratio, Slow: baseRates.Slow}
			}
			if watched {
				// Watchers carry per-run state and their events feed the SSE
				// broker; both keep the point out of shared blocks, so it
				// runs alone as a hooked one-lane block.
				cfg.Obs = &obs.BrokerObserver{B: s.broker, Job: j.id}
				if req.Watch {
					cfg.Watchers = sim.AutoWatchers(net)
				}
				if req.ClockHealth != nil {
					cfg.Watchers = append(cfg.Watchers, req.ClockHealth.watcher())
				}
			}
		},
	}

	runCtx, cancel := context.WithCancelCause(span.NewContext(context.Background(), jobSpan))
	j.cancel = cancel

	// Per-point progress: the engine reports each point as it completes —
	// lanes of an ensemble block retire individually, so progress stays
	// point-granular even on the SoA fast path. Finals are projected from
	// the ensemble after the drain; only identity and errors are recorded
	// here.
	bc.OnResult = func(i int, _ *trace.Trace, err error) {
		if err != nil && context.Cause(runCtx) != nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The job was canceled while this point waited for its slot: it
			// never ran, so it keeps the prefilled "skipped" marker instead
			// of counting as a failure.
			j.pending.Add(-1)
			pendingG.Add(-1)
			return
		}
		pr := PointResult{Index: i, Ratio: pointRatio(i), Seed: pointSeed(i)}
		if err != nil {
			pr.Err = err.Error()
			j.failed.Add(1)
		} else {
			j.completed.Add(1)
		}
		j.results[i] = pr
		j.pending.Add(-1)
		pendingG.Add(-1)
		s.broker.Publish(obs.StreamEvent{Kind: "job_progress", Job: j.id, Data: map[string]any{
			"index": i, "done": j.total - int(j.pending.Load()), "total": j.total,
		}})
	}

	st.mu.Lock()
	st.jobs[j.id] = j
	st.order = append(st.order, j.id)
	st.mu.Unlock()

	go func() {
		defer close(j.done)
		ens, runErr := sim.RunMany(runCtx, net, bc)
		cancel(nil)

		// Project finals for the points that succeeded; failed and skipped
		// points keep the error text already in their slots.
		for i := range j.results {
			if ens == nil || ens.Errs[i] != nil {
				continue
			}
			j.results[i].Final = project(ens.Finals[i], names, cols)
		}
		ferr := runErr
		if ferr == nil && ens != nil {
			ferr = ens.Err()
		}

		// Settle the job: gauge bookkeeping (a job canceled while still
		// queued releases the queued gauge and goes terminal like any
		// other), state resolution, span closure, the terminal SSE event,
		// and retention.
		j.err = ferr
		j.finished.Store(true)
		if leftover := j.pending.Swap(0); leftover > 0 {
			pendingG.Add(float64(-leftover)) // points skipped by cancellation
		}
		if j.started.Load() {
			jobsActiveG.Add(-1)
		} else {
			jobsQueuedG.Add(-1)
		}
		completed := int(j.completed.Load())
		failed := int(j.failed.Load())
		state := "done"
		switch {
		case j.canceled.Load():
			s.reg.Counter("server_jobs_canceled_total").Inc()
			state = "canceled"
		case ferr != nil && completed == 0:
			s.reg.Counter("server_jobs_failed_total").Inc()
			state = "failed"
		default:
			s.reg.Counter("server_jobs_completed_total").Inc()
		}
		jobSpan.SetAttr("job.state", state)
		jobSpan.SetAttr("job.completed", completed)
		jobSpan.SetAttr("job.failed", failed)
		if state == "failed" {
			jobSpan.SetError(ferr)
		}
		jobSpan.End()
		s.broker.Publish(obs.StreamEvent{Kind: "job_done", Job: j.id, Data: map[string]any{
			"state": state, "completed": completed,
			"failed": failed, "total": j.total,
		}})
		st.retire()
	}()
	return j, nil
}

// retire decrements the active count and evicts the oldest finished jobs
// beyond the retention cap, keeping status URLs of recent jobs valid without
// growing without bound.
func (st *jobStore) retire() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.active--
	finished := 0
	for _, id := range st.order {
		if st.jobs[id] != nil && st.jobs[id].finished.Load() {
			finished++
		}
	}
	if over := finished - st.s.cfg.RetainJobs; over > 0 {
		kept := st.order[:0]
		for _, id := range st.order {
			if over > 0 && st.jobs[id] != nil && st.jobs[id].finished.Load() {
				delete(st.jobs, id)
				st.s.jobsEvicted.Inc()
				over--
				continue
			}
			kept = append(kept, id)
		}
		st.order = kept
	}
}

// list snapshots every retained job in creation order.
func (st *jobStore) list() []JobStatus {
	st.mu.Lock()
	ids := append([]string(nil), st.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j := st.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	st.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status(false)
	}
	return out
}

// drain blocks until every active job finishes or ctx expires; stragglers
// are then canceled and awaited. Returns how many jobs were force-canceled.
func (st *jobStore) drain(ctx context.Context) int {
	st.mu.Lock()
	var live []*job
	for _, j := range st.jobs {
		if !j.finished.Load() {
			live = append(live, j)
		}
	}
	st.mu.Unlock()

	forced := 0
	for _, j := range live {
		select {
		case <-j.done:
		case <-ctx.Done():
			j.canceled.Store(true)
			j.cancel(errors.New("server draining"))
			forced++
			<-j.done
		}
	}
	return forced
}

// handleJobSubmit is POST /v1/jobs.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, errf(http.StatusServiceUnavailable, CodeUnavailable, "server is draining"))
		return
	}
	var req JobRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	j, err := s.jobs.submit(&req, span.FromContext(r.Context()))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.status(false))
}

// handleJobStatus is GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, errf(http.StatusNotFound, CodeNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

// handleJobList is GET /v1/jobs.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

// handleJobCancel is DELETE /v1/jobs/{id}. Canceling a finished job is a
// no-op that reports the final state, so retries are harmless.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, errf(http.StatusNotFound, CodeNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	if !j.isDone() {
		j.canceled.Store(true)
		j.cancel(errors.New("canceled by client"))
	}
	writeJSON(w, http.StatusOK, j.status(false))
}
