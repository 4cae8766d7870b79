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
// correlation. Alerting belongs to whatever scrapes /metrics: it exposes
// every serving and clock-health counter.
//
// -debug-addr (off by default) opens a second, operator-only listener with
// continuous profiling via /debug/pprof/*, /debug/tracez and /metrics.
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
//	go tool pprof http://127.0.0.1:8081/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
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
	simTimeout   time.Duration
	drainTimeout time.Duration
	retainJobs   int
	accessLog    string // "" = off, "-" = stderr, else a file path
	traceCap     int
	eventBuf     int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "pprof/tracez/metrics listener address (empty = off; bind loopback)")
	flag.Int64Var(&o.maxBody, "max-body", 1<<20, "request body limit in bytes")
	flag.IntVar(&o.maxSpecies, "max-species", 4096, "species limit per submitted network")
	flag.IntVar(&o.maxReactions, "max-reactions", 16384, "reaction limit per submitted network")
	flag.IntVar(&o.maxSweep, "max-sweep-points", 4096, "sweep point limit per job")
	flag.IntVar(&o.maxJobs, "max-jobs", 64, "concurrently active job limit")
	flag.IntVar(&o.cacheSize, "cache", 128, "network/response cache entries (negative disables caching)")
	flag.IntVar(&o.maxSims, "max-sims", 0, "concurrent simulation bound (0 = NumCPU)")
	flag.DurationVar(&o.simTimeout, "sim-timeout", 60*time.Second, "per-simulation deadline ceiling")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
	flag.IntVar(&o.retainJobs, "retain-jobs", 256, "finished jobs kept queryable")
	flag.StringVar(&o.accessLog, "access-log", "", "JSON access log: a file path, or - for stderr")
	flag.IntVar(&o.traceCap, "trace-capacity", 2048, "finished spans retained for /debug/tracez")
	flag.IntVar(&o.eventBuf, "event-buffer", 256, "per-SSE-subscriber event buffer (full buffers drop)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, o, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "crnserved:", err)
		os.Exit(1)
	}
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
		RetainJobs:        o.retainJobs,
		TraceCapacity:     o.traceCap,
		EventBuffer:       o.eventBuf,
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
