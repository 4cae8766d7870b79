// Package server is the HTTP face of the repository: a JSON-over-HTTP
// service that parses, compiles and simulates chemical reaction networks on
// request, on top of the layers the previous PRs built — sim.Run for
// context-aware single simulations, internal/batch for fanned parameter
// sweeps, and internal/obs for metrics and access logs.
//
// Endpoints:
//
//	POST   /v1/simulate    synchronous run of a submitted CRN (or a named
//	                       experiment from exper.Registry()), with a
//	                       per-request deadline and a response cache
//	POST   /v1/jobs        submit an asynchronous parameter-sweep job
//	GET    /v1/jobs        list jobs
//	GET    /v1/jobs/{id}   job status, progress and (when done) results
//	GET    /v1/jobs/{id}/events  live SSE stream of one job's progress and
//	                       clock telemetry (edges, phases, health alerts)
//	DELETE /v1/jobs/{id}   cancel a job
//	GET    /v1/stream      live SSE stream of every job's events
//	GET    /v1/experiments list the registered reproduction experiments
//	GET    /metrics        Prometheus text exposition of the server registry
//	GET    /debug/tracez   recent and slowest request traces; ?trace=<hex id>
//	                       exports one trace as OTLP/JSON
//	GET    /healthz        liveness (always 200 while the process serves)
//	GET    /readyz         readiness (503 once draining begins)
//
// DebugHandler serves the operator-only introspection surface — continuous
// profiling via /debug/pprof/*, /debug/tracez and a /metrics mirror — meant
// for a separate loopback listener (crnserved -debug-addr), never the public
// one.
//
// Every request runs under a span: the W3C traceparent header is honoured on
// the way in and set on the way out, job submissions parent one span per
// sweep point (IDs derived deterministically from the job index, like the
// seeds), and the simulators hang their own spans underneath — so one trace
// in /debug/tracez shows HTTP handling, queue wait and per-point sim time.
//
// Robustness is part of the design: request bodies are size-capped, parsed
// networks are rejected over the species/reaction limits, simulation work is
// bounded by a semaphore independent of accepted connections, deterministic
// responses are served from a canonical-request-hash LRU cache, and Drain
// lets in-flight jobs finish before shutdown.
package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

// Limits bounds what a single request may ask of the server. Zero values
// select the documented defaults.
type Limits struct {
	// MaxBodyBytes caps the request body; 0 -> 1 MiB.
	MaxBodyBytes int64
	// MaxSpecies and MaxReactions cap the parsed network; 0 -> 4096 / 16384.
	MaxSpecies   int
	MaxReactions int
	// MaxSweepPoints caps the per-job sweep size; 0 -> 4096.
	MaxSweepPoints int
	// MaxActiveJobs caps concurrently live (not yet drained) jobs; 0 -> 64.
	MaxActiveJobs int
}

func (l Limits) normalize() Limits {
	if l.MaxBodyBytes == 0 {
		l.MaxBodyBytes = 1 << 20
	}
	if l.MaxSpecies == 0 {
		l.MaxSpecies = 4096
	}
	if l.MaxReactions == 0 {
		l.MaxReactions = 16384
	}
	if l.MaxSweepPoints == 0 {
		l.MaxSweepPoints = 4096
	}
	if l.MaxActiveJobs == 0 {
		l.MaxActiveJobs = 64
	}
	return l
}

// Config assembles a Server. The zero value serves with all defaults.
type Config struct {
	Limits Limits
	// CacheSize bounds both LRU caches (compiled networks and finished
	// deterministic responses) in entries; 0 -> 128, negative disables
	// caching entirely (every request recomputes).
	CacheSize int
	// MaxConcurrentSims bounds simultaneously executing simulation work —
	// synchronous requests and sweep points together — independent of how
	// many connections the HTTP listener accepts; 0 -> runtime.NumCPU().
	// It also sizes the batch pool of each sweep job and served grid
	// experiment, since every unit of their work waits on the same bound.
	MaxConcurrentSims int
	// SimTimeout is the server-side ceiling on one simulation (the
	// per-request deadline); a request's timeout_seconds may shorten but
	// never extend it. 0 -> 60s.
	SimTimeout time.Duration
	// RetainJobs caps how many finished jobs stay queryable; 0 -> 256.
	RetainJobs int
	// AccessLog, when non-nil, receives one structured JSON line per served
	// request through a span-correlating slog logger built with
	// obs.NewLogger.
	AccessLog io.Writer
	// TraceCapacity bounds the tracer's in-memory span ring (request, job
	// and sim spans, served at /debug/tracez); 0 -> 2048.
	TraceCapacity int
	// EventBuffer is the per-SSE-subscriber event buffer; a subscriber whose
	// buffer is full loses events (counted, never blocking the publisher).
	// 0 -> 256.
	EventBuffer int
}

// Server is the HTTP simulation service. Create with New, serve Handler().
type Server struct {
	cfg      Config
	reg      *obs.Registry
	log      *slog.Logger
	netCache *lruCache // crn text hash -> *crn.Network
	resCache *lruCache // canonical request hash -> cachedResponse
	sem      chan struct{}
	jobs     *jobStore
	mux      *http.ServeMux
	draining atomic.Bool

	tracer    *span.Tracer
	broker    *obs.Broker
	drainCh   chan struct{} // closed when draining starts; ends SSE streams
	drainOnce sync.Once

	simInflight *obs.Gauge
	simWait     *obs.Histogram
	simCanceled *obs.Counter
	jobsEvicted *obs.Counter

	// Per-request resource attribution counters (kind="simulate"); the
	// batch engine writes the matching kind="batch" series per sweep job.
	attrCPU        *obs.Counter
	attrAllocs     *obs.Counter
	attrAllocBytes *obs.Counter
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg.Limits = cfg.Limits.normalize()
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 128
	}
	if cfg.MaxConcurrentSims <= 0 {
		cfg.MaxConcurrentSims = runtime.NumCPU()
	}
	if cfg.SimTimeout <= 0 {
		cfg.SimTimeout = 60 * time.Second
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 256
	}
	if cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = 2048
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 256
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		netCache: newLRU(cfg.CacheSize, "network", reg),
		resCache: newLRU(cfg.CacheSize, "response", reg),
		sem:      make(chan struct{}, cfg.MaxConcurrentSims),
		tracer:   span.NewTracer(cfg.TraceCapacity),
		broker:   obs.NewBroker(),
		drainCh:  make(chan struct{}),

		simInflight: reg.Gauge("server_sims_inflight"),
		simWait:     reg.Histogram("server_sim_wait_seconds", obs.HTTPTimeBuckets()),
		simCanceled: reg.Counter("server_sims_canceled_total"),
		jobsEvicted: reg.Counter("jobs_evicted_total"),

		attrCPU:        reg.Counter(obs.Label("job_cpu_seconds", "kind", "simulate")),
		attrAllocs:     reg.Counter(obs.Label("job_allocs_total", "kind", "simulate")),
		attrAllocBytes: reg.Counter(obs.Label("job_alloc_bytes_total", "kind", "simulate")),
	}
	s.broker.Metrics(reg)
	if cfg.AccessLog != nil {
		s.log = obs.NewLogger(cfg.AccessLog, nil)
	}
	s.jobs = newJobStore(s)
	s.mux = http.NewServeMux()
	s.route("POST /v1/simulate", s.handleSimulate)
	s.route("POST /v1/jobs", s.handleJobSubmit)
	s.route("GET /v1/jobs", s.handleJobList)
	s.route("GET /v1/jobs/{id}", s.handleJobStatus)
	s.route("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.route("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.route("GET /v1/stream", s.handleStream)
	s.route("GET /v1/experiments", s.handleExperiments)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /debug/tracez", s.handleTracez)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	return s
}

// route registers pattern with the standard instrumentation stack. The mux
// pattern doubles as the metric route label, which keeps label cardinality
// equal to the route count no matter what paths clients probe.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, obs.InstrumentHTTP(s.reg, s.log, s.tracer, pattern, h))
}

// Registry returns the server's metrics registry (the one /metrics serves).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer returns the server's span tracer (the one /debug/tracez serves).
func (s *Server) Tracer() *span.Tracer { return s.tracer }

// Broker returns the server's SSE event broker.
func (s *Server) Broker() *obs.Broker { return s.broker }

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// DebugHandler returns the operator-only debug surface: net/http/pprof
// under /debug/pprof/, the /debug/tracez span browser and a /metrics
// mirror. It is intentionally a separate handler from Handler() so
// crnserved can bind it to an opt-in loopback listener (-debug-addr) —
// profiles and runtime internals never ship on the public API listener.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/tracez", s.handleTracez)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// StartDrain flips the server into draining mode: /readyz starts failing and
// new simulations and jobs are rejected with 503, while status polls, metrics
// and health stay served; open SSE streams are told to finish and closed. It
// is idempotent.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Drain performs graceful shutdown of the simulation side: it stops
// admitting work (StartDrain) and blocks until every in-flight job has
// finished — or until ctx expires, at which point the stragglers are
// canceled and awaited (cancellation is prompt: the simulators poll their
// context inside the step loops). It returns the number of jobs that were
// force-canceled.
func (s *Server) Drain(ctx context.Context) int {
	s.StartDrain()
	return s.jobs.drain(ctx)
}

// acquireSim takes one slot of the simulation semaphore, honouring ctx while
// waiting, and records (and returns) the queue wait. Callers must releaseSim
// exactly once after a nil error.
func (s *Server) acquireSim(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	select {
	case s.sem <- struct{}{}:
		wait := time.Since(start)
		s.simWait.Observe(wait.Seconds())
		s.simInflight.Add(1)
		return wait, nil
	case <-ctx.Done():
		return time.Since(start), ctx.Err()
	}
}

func (s *Server) releaseSim() {
	s.simInflight.Add(-1)
	<-s.sem
}

// handleMetrics serves the registry in the Prometheus text exposition
// format, refreshing the point-in-time gauges first.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Gauge(obs.Label("cache_entries", "cache", "network")).Set(float64(s.netCache.len()))
	s.reg.Gauge(obs.Label("cache_entries", "cache", "response")).Set(float64(s.resCache.len()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := s.reg.WriteTo(w); err != nil {
		// The response is already partially written; nothing to repair.
		return
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}
