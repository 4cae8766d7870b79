// Package batch is a worker-pool execution engine for simulation sweeps and
// ensembles. It fans a fixed-size job set — typically one simulation per
// (network, rates, seed, method, horizon) grid point — across a bounded pool
// of goroutines while keeping the results bit-identical to a sequential run:
//
//   - per-job seeds come from DeriveSeed, a pure function of (base seed, job
//     index), so they do not depend on worker count or scheduling;
//   - Map stores each result at its job index, so output order is the
//     submission order no matter which worker finished first;
//   - instrumentation goes to per-worker registry shards that are merged
//     after the pool drains, so the observer hot path never contends on a
//     shared registry.
//
// Cancellation is cooperative through context.Context: the pool context is
// checked before every job, per-job deadlines come from Options.JobTimeout,
// and the simulators poll their context inside their step loops, so a
// canceled batch drains promptly instead of finishing in-flight horizons.
package batch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/proc"
	"repro/internal/obs/span"
)

// Point identifies one job handed to a Func: its index in the job set, the
// worker executing it, the seed derived for it, and an observer writing to
// the executing worker's registry shard (nil unless Options.Metrics is set).
// The observer is stateless, so the Func may pass it straight into a
// simulator config without any locking concerns.
type Point struct {
	Index  int
	Worker int
	Seed   int64
	Obs    obs.Observer
}

// Func executes one job. The context carries pool cancellation and the
// per-job deadline; implementations should hand it to Run/Integrate so a
// canceled batch stops mid-simulation. A panic in a Func is recovered and
// reported as that job's error; the worker survives.
type Func func(ctx context.Context, p Point) error

// Policy selects how the pool reacts to a failing job.
type Policy int

const (
	// FailFast cancels the pool on the first job error: in-flight jobs are
	// interrupted through their context and queued jobs are skipped. This is
	// the zero value because sweeps are usually all-or-nothing.
	FailFast Policy = iota
	// CollectAll keeps executing every job and reports all failures joined.
	CollectAll
)

// Options configures a batch run. The zero value runs with runtime.NumCPU()
// workers, base seed 0, no per-job timeout, FailFast, and no metrics.
type Options struct {
	// Workers bounds pool size; 0 selects runtime.NumCPU(). The pool never
	// starts more workers than there are jobs.
	Workers int
	// Seed is the base for DeriveSeed; job i receives DeriveSeed(Seed, i).
	Seed int64
	// JobTimeout, when positive, bounds each job's wall-clock time through a
	// per-job context deadline.
	JobTimeout time.Duration
	// Policy selects FailFast (default) or CollectAll error handling.
	Policy Policy
	// Metrics, when non-nil, receives the engine's own metrics
	// (batch_jobs_total{worker=}, batch_failures_total,
	// batch_queue_wait_seconds, batch_job_seconds, batch_workers), the
	// per-job resource attribution counters
	// (job_cpu_seconds{kind="batch"}, job_allocs_total{kind="batch"},
	// job_alloc_bytes_total{kind="batch"} — process-global deltas bracketed
	// around each job, approximate under concurrency; see DESIGN.md) plus
	// whatever the per-job observers record, all merged from the worker
	// shards after the pool drains.
	Metrics *obs.Registry
}

func (o Options) workers(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// JobError ties a job failure to its index in the job set.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return fmt.Sprintf("batch: job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *JobError) Unwrap() error { return e.Err }

// Report summarises a batch run.
type Report struct {
	Jobs      int           // jobs submitted
	Completed int           // jobs that ran to success
	Skipped   int           // jobs never started because the pool was canceled
	Workers   int           // workers actually started
	Wall      time.Duration // wall-clock time of the whole batch
	Errors    []*JobError   // failed jobs, sorted by index
}

// Run executes jobs 0..jobs-1 through fn on a worker pool and blocks until
// the pool drains. The returned Report is always non-nil. The error is nil
// only if every job completed: under FailFast it is the lowest-indexed
// observed failure, under CollectAll all failures joined, and if ctx itself
// was canceled the cancellation cause wrapped with progress so far.
//
// When ctx carries a span, every job runs under its own child span
// (batch.job[i], span ID derived deterministically from the parent span and
// the job index) recording the worker, derived seed, queue wait, job
// duration and attributed resource cost (job.cpu_seconds, job.alloc_bytes,
// job.allocs); the job's context carries that span, so simulators started
// by fn parent their sim spans under it.
func Run(ctx context.Context, jobs int, fn Func, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rep := &Report{Jobs: jobs}
	if jobs <= 0 {
		return rep, nil
	}
	nw := opts.workers(jobs)
	rep.Workers = nw
	start := time.Now()

	poolCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	type queued struct {
		idx int
		enq time.Time
	}
	queue := make(chan queued, jobs)
	for i := 0; i < jobs; i++ {
		queue <- queued{i, start}
	}
	close(queue)

	shards := make([]*obs.Registry, nw)
	var (
		mu   sync.Mutex
		errs []*JobError
	)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		if opts.Metrics != nil {
			shards[w] = obs.NewRegistry()
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := shards[w]
			var (
				jobsC   *obs.Counter
				waitH   *obs.Histogram
				runH    *obs.Histogram
				cpuC    *obs.Counter
				nallocC *obs.Counter
				ballocC *obs.Counter
				// pointObs is a plain obs.Observer so a nil observer
				// stays a nil interface in Point.
				pointObs obs.Observer
			)
			if shard != nil {
				jobsC = shard.Counter(obs.Label("batch_jobs_total", "worker", fmt.Sprintf("w%d", w)))
				waitH = shard.Histogram("batch_queue_wait_seconds", timeBuckets())
				runH = shard.Histogram("batch_job_seconds", timeBuckets())
				cpuC = shard.Counter(obs.Label("job_cpu_seconds", "kind", "batch"))
				nallocC = shard.Counter(obs.Label("job_allocs_total", "kind", "batch"))
				ballocC = shard.Counter(obs.Label("job_alloc_bytes_total", "kind", "batch"))
				pointObs = obs.NewRegistryObserver(shard)
			}
			for q := range queue {
				if poolCtx.Err() != nil {
					mu.Lock()
					rep.Skipped++
					mu.Unlock()
					continue
				}
				wait := time.Since(q.enq).Seconds()
				if waitH != nil {
					waitH.Observe(wait)
				}
				p := Point{Index: q.idx, Worker: w, Seed: DeriveSeed(opts.Seed, q.idx), Obs: pointObs}
				jobCtx := poolCtx
				var jobSpan *span.Span
				if parent := span.FromContext(ctx); parent != nil {
					// The span ID is derived from (parent, index) with the
					// same SplitMix64 finalizer as the job seed, so a job's
					// identity in an exported trace — like its RNG stream —
					// is a pure function of the submission, not of which
					// worker picked it up.
					jobSpan = parent.ChildAt(q.idx, fmt.Sprintf("batch.job[%d]", q.idx))
					jobSpan.SetAttr("job.index", q.idx)
					jobSpan.SetAttr("job.worker", w)
					jobSpan.SetAttr("job.seed", p.Seed)
					jobSpan.SetAttr("job.queue_wait_seconds", wait)
					jobCtx = span.NewContext(poolCtx, jobSpan)
				}
				// Resource attribution: bracket the job with process-global
				// usage readings. The delta charges the job with the CPU and
				// allocation volume consumed in its window — exact when this
				// worker is the only load, approximate (over-attributed)
				// under concurrency, but the sum across jobs still bounds
				// the true batch total. Only measured when someone is
				// looking (a metrics shard or a job span).
				measure := shard != nil || span.FromContext(ctx) != nil
				var u0 proc.Usage
				if measure {
					u0 = proc.ReadUsage()
				}
				t0 := time.Now()
				err := runOne(jobCtx, fn, p, opts.JobTimeout)
				el := time.Since(t0).Seconds()
				var du proc.Usage
				if measure {
					du = proc.ReadUsage().Sub(u0)
				}
				if jobSpan != nil {
					jobSpan.SetAttr("job.seconds", el)
					jobSpan.SetAttr("job.cpu_seconds", du.CPUSeconds)
					jobSpan.SetAttr("job.alloc_bytes", int64(du.AllocBytes))
					jobSpan.SetAttr("job.allocs", int64(du.AllocObjects))
					jobSpan.SetError(err)
					jobSpan.End()
				}
				if shard != nil {
					cpuC.Add(du.CPUSeconds)
					nallocC.Add(du.AllocObjects)
					ballocC.Add(du.AllocBytes)
				}
				if runH != nil {
					runH.Observe(el)
				}
				if jobsC != nil {
					jobsC.Inc()
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, &JobError{Index: q.idx, Err: err})
					if shard != nil {
						shard.Counter("batch_failures_total").Inc()
					}
					if opts.Policy == FailFast {
						cancel(fmt.Errorf("batch: job %d failed: %w", q.idx, err))
					}
				} else {
					rep.Completed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	rep.Wall = time.Since(start)
	sort.Slice(errs, func(i, j int) bool { return errs[i].Index < errs[j].Index })
	rep.Errors = errs

	if opts.Metrics != nil {
		opts.Metrics.Gauge("batch_workers").Set(float64(nw))
		for _, s := range shards {
			opts.Metrics.Merge(s)
		}
	}

	if err := ctx.Err(); err != nil {
		return rep, fmt.Errorf("batch: canceled after %d of %d jobs (%d skipped): %w",
			rep.Completed, jobs, rep.Skipped, context.Cause(ctx))
	}
	if len(errs) > 0 {
		if opts.Policy == FailFast {
			return rep, errs[0]
		}
		joined := make([]error, len(errs))
		for i, e := range errs {
			joined[i] = e
		}
		return rep, errors.Join(joined...)
	}
	return rep, nil
}

// Map runs fn over jobs 0..jobs-1 like Run and collects the results in job
// order: out[i] is job i's value regardless of which worker produced it or
// when, which is what makes a parallel sweep's table identical to the
// sequential one. Failed or skipped jobs leave the zero value at their index;
// the Report tells them apart from legitimate zeros.
func Map[T any](ctx context.Context, jobs int, fn func(ctx context.Context, p Point) (T, error), opts Options) ([]T, *Report, error) {
	out := make([]T, max(jobs, 0))
	rep, err := Run(ctx, jobs, func(ctx context.Context, p Point) error {
		v, ferr := fn(ctx, p)
		if ferr != nil {
			return ferr
		}
		out[p.Index] = v
		return nil
	}, opts)
	return out, rep, err
}

// runOne executes a single job with panic recovery and the per-job deadline.
func runOne(ctx context.Context, fn Func, p Point, timeout time.Duration) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batch: job %d panicked: %v\n%s", p.Index, r, debug.Stack())
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return fn(ctx, p)
}

// DeriveSeed maps (base, index) to a per-job RNG seed with the SplitMix64
// finalizer. It is a pure function — independent of worker count, scheduling
// and wall clock — so a sweep's stochastic results are reproducible from the
// base seed alone, and index-adjacent jobs get statistically independent
// streams even though their inputs differ by one bit.
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base) + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// timeBuckets spans queue waits and job durations: decades from 1µs to 100s
// with a 1-2-5 subdivision.
func timeBuckets() []float64 {
	var b []float64
	for e := -6; e <= 2; e++ {
		p := math.Pow(10, float64(e))
		b = append(b, p, 2*p, 5*p)
	}
	return b
}
