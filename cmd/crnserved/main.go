// Command crnserved serves the repository's simulation stack over JSON HTTP:
// synchronous CRN runs (POST /v1/simulate), asynchronous parameter-sweep
// jobs on the batch worker pool (POST /v1/jobs, GET/DELETE /v1/jobs/{id}),
// the registered reproduction experiments (GET /v1/experiments), and the
// server's own metrics in Prometheus text exposition (GET /metrics), with
// /healthz and /readyz for orchestration.
//
// Observability is built in: every request runs under a W3C traceparent-
// compatible span (browse recent and slow traces at GET /debug/tracez, or
// export one as OTLP/JSON with ?trace=<id>), job progress and clock
// telemetry stream live over Server-Sent Events (GET /v1/jobs/{id}/events
// for one job, GET /v1/stream for all), and sweep jobs can attach the
// clock-health analyzer ("clock_health" in the job request) whose alerts
// reach the stream, the trace and the clock_alerts_total metric. Access and
// lifecycle logs are structured JSON (log/slog) with trace/span
// correlation.
//
// Every metric family is also sampled into an embedded time-series store
// (-tsdb-step, -tsdb-retention) that backs the statusz sparklines, ad-hoc
// queries at GET /debug/query, and a continuously evaluated alert rule set
// (-rules, validated offline with -check-rules; built-in defaults cover
// serving and clock health). When a rule fires, the flight
// recorder freezes the recent past — SSE events, spans and the rule's
// input series — into a capsule at GET /debug/flightz/{id}, persisted
// under -flightdir when set.
//
// -debug-addr (off by default) opens a second, operator-only listener with
// the deep-introspection surface: continuous profiling via /debug/pprof/*,
// the human-readable /debug/statusz dashboard (health, caches, jobs, clock
// alerts, runtime sparklines, recent traces), /debug/tracez and /metrics.
// Bind it to loopback — it is intentionally never served on -addr.
//
// SIGINT/SIGTERM triggers graceful shutdown: readiness flips to 503, the
// listeners stop accepting, and in-flight jobs drain up to -drain-timeout
// before the stragglers are canceled.
//
// Usage:
//
//	crnserved [flags]
//
// Example:
//
//	crnserved -addr :8080 -debug-addr 127.0.0.1:8081 -access-log - &
//	curl -s localhost:8080/v1/simulate -d '{"crn":"init X = 1\nX -> Y : slow","t_end":5}'
//	open http://127.0.0.1:8081/debug/statusz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/server"
)

// options collects the flag values; flags map onto it 1:1.
type options struct {
	addr         string
	debugAddr    string // "" = debug listener off
	maxBody      int64
	maxSpecies   int
	maxReactions int
	maxSweep     int
	maxJobs      int
	cacheSize    int
	maxSims      int
	workers      int
	simTimeout   time.Duration
	drainTimeout time.Duration
	retainJobs   int
	accessLog    string // "" = off, "-" = stderr, else a file path
	traceCap     int
	eventBuf     int
	procEvery    time.Duration

	tsdbStep      time.Duration // history sampling step (0 = 5s, negative = off)
	tsdbRetention time.Duration // history window per series (0 = 1h)
	rulesFile     string        // alert rules JSON ("" = built-in defaults)
	checkRules    bool          // validate -rules and exit
	flightDir     string        // flight capsules persisted here ("" = memory only)
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "pprof/statusz listener address (empty = off; bind loopback)")
	flag.Int64Var(&o.maxBody, "max-body", 1<<20, "request body limit in bytes")
	flag.IntVar(&o.maxSpecies, "max-species", 4096, "species limit per submitted network")
	flag.IntVar(&o.maxReactions, "max-reactions", 16384, "reaction limit per submitted network")
	flag.IntVar(&o.maxSweep, "max-sweep-points", 4096, "sweep point limit per job")
	flag.IntVar(&o.maxJobs, "max-jobs", 64, "concurrently active job limit")
	flag.IntVar(&o.cacheSize, "cache", 128, "network/response cache entries (negative disables caching)")
	flag.IntVar(&o.maxSims, "max-sims", 0, "concurrent simulation bound (0 = NumCPU)")
	flag.IntVar(&o.workers, "workers", 0, "batch pool workers per job (0 = NumCPU)")
	flag.DurationVar(&o.simTimeout, "sim-timeout", 60*time.Second, "per-simulation deadline ceiling")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
	flag.IntVar(&o.retainJobs, "retain-jobs", 256, "finished jobs kept queryable")
	flag.StringVar(&o.accessLog, "access-log", "", "JSON access log: a file path, or - for stderr")
	flag.IntVar(&o.traceCap, "trace-capacity", 2048, "finished spans retained for /debug/tracez")
	flag.IntVar(&o.eventBuf, "event-buffer", 256, "per-SSE-subscriber event buffer (full buffers drop)")
	flag.DurationVar(&o.procEvery, "proc-every", 0, "runtime self-sampling interval (0 = default 5s, negative = off)")
	flag.DurationVar(&o.tsdbStep, "tsdb-step", 0, "metric history sampling step (0 = default 5s, negative = history/alerts off)")
	flag.DurationVar(&o.tsdbRetention, "tsdb-retention", 0, "metric history retained per series (0 = 1h)")
	flag.StringVar(&o.rulesFile, "rules", "", "alert rules JSON file (empty = built-in defaults)")
	flag.BoolVar(&o.checkRules, "check-rules", false, "validate the -rules file and exit")
	flag.StringVar(&o.flightDir, "flightdir", "", "directory for persisted flight capsules (empty = in-memory only)")
	flag.Parse()

	if o.checkRules {
		os.Exit(runCheckRules(o.rulesFile, os.Stdout, os.Stderr))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, o, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "crnserved:", err)
		os.Exit(1)
	}
}

// runCheckRules validates an alert rules file without starting the server,
// so deployments (and check.sh) can gate on a bad rules push. With no file
// it reports the built-in default rule set. Returns the process exit code.
func runCheckRules(path string, out, errOut io.Writer) int {
	if path == "" {
		rules := alert.DefaultRules()
		fmt.Fprintf(out, "no -rules file; built-in defaults OK (%d rules)\n", len(rules))
		return 0
	}
	rules, err := alert.Load(path)
	if err != nil {
		fmt.Fprintf(errOut, "crnserved: -check-rules: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s OK (%d rules)\n", path, len(rules))
	return 0
}

// serve builds the server, listens on o.addr (and, when set, the debug
// surface on o.debugAddr) and blocks until ctx is canceled, then shuts down
// gracefully. ready and debugReady, when non-nil, receive the respective
// bound addresses once the listeners are up (tests bind :0 and need the
// ports).
func serve(ctx context.Context, o options, ready, debugReady chan<- net.Addr) error {
	cfg := server.Config{
		Limits: server.Limits{
			MaxBodyBytes:   o.maxBody,
			MaxSpecies:     o.maxSpecies,
			MaxReactions:   o.maxReactions,
			MaxSweepPoints: o.maxSweep,
			MaxActiveJobs:  o.maxJobs,
		},
		CacheSize:         o.cacheSize,
		MaxConcurrentSims: o.maxSims,
		SimTimeout:        o.simTimeout,
		Workers:           o.workers,
		RetainJobs:        o.retainJobs,
		TraceCapacity:     o.traceCap,
		EventBuffer:       o.eventBuf,
		ProcSampleEvery:   o.procEvery,
		TSDBStep:          o.tsdbStep,
		TSDBRetention:     o.tsdbRetention,
		FlightDir:         o.flightDir,
	}
	if o.rulesFile != "" {
		rules, err := alert.Load(o.rulesFile)
		if err != nil {
			return fmt.Errorf("-rules: %w", err)
		}
		cfg.Rules = rules
	}
	switch o.accessLog {
	case "":
	case "-":
		cfg.AccessLog = os.Stderr
	default:
		f, err := os.Create(o.accessLog)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.AccessLog = f
	}
	s := server.New(cfg)
	// Lifecycle messages share the structured-log format of the access log
	// but always go to stderr, so a file-bound access log stays pure.
	logger := obs.NewLogger(os.Stderr, nil)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String())

	var debugSrv *http.Server
	if o.debugAddr != "" {
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			httpSrv.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		if debugReady != nil {
			debugReady <- dln.Addr()
		}
		debugSrv = &http.Server{Handler: s.DebugHandler()}
		go func() {
			// The debug surface is best-effort: its listener failing must
			// not take the API down.
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("debug listener failed", "err", err.Error())
			}
		}()
		logger.Info("debug listening", "addr", dln.Addr().String())
	}

	select {
	case err := <-serveErr:
		if debugSrv != nil {
			debugSrv.Close()
		}
		return err // listener failed before any shutdown signal
	case <-ctx.Done():
	}

	// Graceful shutdown: fail readiness first so load balancers stop routing,
	// then close the listeners and drain connections and jobs within budget.
	logger.Info("shutting down, draining jobs")
	s.StartDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(drainCtx)
	if debugSrv != nil {
		if err := debugSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Warn("debug shutdown", "err", err.Error())
		}
	}
	if forced := s.Drain(drainCtx); forced > 0 {
		logger.Warn("drain budget expired", "canceled_jobs", forced)
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return shutdownErr
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
