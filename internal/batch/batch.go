// Package batch is a worker-pool execution engine for simulation sweeps and
// ensembles. It fans a fixed-size job set — typically one simulation per
// (network, rates, seed, method, horizon) grid point — across a bounded pool
// of goroutines while keeping the results bit-identical to a sequential run:
//
//   - jobs are identified by their index alone, so a job's inputs (and any
//     seed derived with DeriveSeed) do not depend on worker count or
//     scheduling;
//   - Map stores each result at its job index, so output order is the
//     submission order no matter which worker finished first;
//   - the engine's metrics go straight into Options.Metrics as each job
//     ends, so a scrape during a sweep sees the jobs finished so far.
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

// Func executes job i. The context carries pool cancellation and the
// per-job deadline; implementations should hand it to Run/Integrate so a
// canceled batch stops mid-simulation. A panic in a Func is recovered and
// reported as that job's error; the worker survives.
type Func func(ctx context.Context, i int) error

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
// workers, no per-job timeout, FailFast, and no metrics.
type Options struct {
	// Workers bounds pool size; 0 selects runtime.NumCPU(). The pool never
	// starts more workers than there are jobs.
	Workers int
	// JobTimeout, when positive, bounds each job's wall-clock time through a
	// per-job context deadline.
	JobTimeout time.Duration
	// Policy selects FailFast (default) or CollectAll error handling.
	Policy Policy
	// Metrics, when non-nil, receives the engine's own metrics
	// (batch_jobs_total{worker=}, batch_failures_total,
	// batch_queue_wait_seconds, batch_job_seconds, batch_workers) and the
	// per-job resource attribution counters
	// (job_cpu_seconds{kind="batch"}, job_allocs_total{kind="batch"},
	// job_alloc_bytes_total{kind="batch"} — process-global deltas bracketed
	// around each job, approximate under concurrency; see DESIGN.md), each
	// written as its job ends.
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

// Run executes jobs 0..jobs-1 through fn on a worker pool and blocks until
// the pool drains. The error is nil only if every job completed: under
// FailFast it is the lowest-indexed observed failure, under CollectAll all
// failures joined in index order, and if ctx itself was canceled the
// cancellation cause wrapped with progress so far.
//
// When ctx carries a span, every job runs under its own child span
// (batch.job[i], span ID derived deterministically from the parent span and
// the job index) recording the worker, queue wait, job duration and
// attributed resource cost (job.cpu_seconds, job.alloc_bytes, job.allocs);
// the job's context carries that span, so simulators started by fn parent
// their sim spans under it.
func Run(ctx context.Context, jobs int, fn Func, opts Options) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if jobs <= 0 {
		return nil
	}
	nw := opts.workers(jobs)
	start := time.Now()

	poolCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	queue := make(chan int, jobs)
	for i := 0; i < jobs; i++ {
		queue <- i
	}
	close(queue)

	reg := opts.Metrics
	parent := span.FromContext(ctx)
	measure := reg != nil || parent != nil
	var (
		waitH, runH            *obs.Histogram
		cpuC, nallocC, ballocC *obs.Counter
	)
	if reg != nil {
		reg.Gauge("batch_workers").Set(float64(nw))
		waitH = reg.Histogram("batch_queue_wait_seconds", timeBuckets())
		runH = reg.Histogram("batch_job_seconds", timeBuckets())
		cpuC = reg.Counter(obs.Label("job_cpu_seconds", "kind", "batch"))
		nallocC = reg.Counter(obs.Label("job_allocs_total", "kind", "batch"))
		ballocC = reg.Counter(obs.Label("job_alloc_bytes_total", "kind", "batch"))
	}
	var (
		mu                 sync.Mutex
		errs               []*JobError
		completed, skipped int
		wg                 sync.WaitGroup
	)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var jobsC *obs.Counter
			if reg != nil {
				jobsC = reg.Counter(obs.Label("batch_jobs_total", "worker", fmt.Sprintf("w%d", w)))
			}
			for i := range queue {
				if poolCtx.Err() != nil {
					mu.Lock()
					skipped++
					mu.Unlock()
					continue
				}
				wait := time.Since(start).Seconds()
				if reg != nil {
					waitH.Observe(wait)
				}
				jobCtx := poolCtx
				var jobSpan *span.Span
				if parent != nil {
					// The span ID is derived from (parent, index) with the
					// same SplitMix64 finalizer as DeriveSeed, so a job's
					// identity in an exported trace is a pure function of
					// the submission, not of which worker picked it up.
					jobSpan = parent.ChildAt(i, fmt.Sprintf("batch.job[%d]", i))
					jobSpan.SetAttr("job.index", i)
					jobSpan.SetAttr("job.worker", w)
					jobSpan.SetAttr("job.queue_wait_seconds", wait)
					jobCtx = span.NewContext(poolCtx, jobSpan)
				}
				// Resource attribution: bracket the job with process-global
				// usage readings. The delta charges the job with the CPU and
				// allocation volume consumed in its window — exact when this
				// worker is the only load, approximate (over-attributed)
				// under concurrency, but the sum across jobs still bounds
				// the true batch total. Only measured when someone is
				// looking (a registry or a job span).
				var u0 proc.Usage
				if measure {
					u0 = proc.ReadUsage()
				}
				t0 := time.Now()
				err := runOne(jobCtx, fn, i, opts.JobTimeout)
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
				if reg != nil {
					runH.Observe(el)
					cpuC.Add(du.CPUSeconds)
					nallocC.Add(du.AllocObjects)
					ballocC.Add(du.AllocBytes)
					jobsC.Inc()
					if err != nil {
						reg.Counter("batch_failures_total").Inc()
					}
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, &JobError{Index: i, Err: err})
					if opts.Policy == FailFast {
						cancel(fmt.Errorf("batch: job %d failed: %w", i, err))
					}
				} else {
					completed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	sort.Slice(errs, func(i, j int) bool { return errs[i].Index < errs[j].Index })

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("batch: canceled after %d of %d jobs (%d skipped): %w",
			completed, jobs, skipped, context.Cause(ctx))
	}
	if len(errs) > 0 {
		if opts.Policy == FailFast {
			return errs[0]
		}
		joined := make([]error, len(errs))
		for i, e := range errs {
			joined[i] = e
		}
		return errors.Join(joined...)
	}
	return nil
}

// Map runs fn over jobs 0..jobs-1 like Run and collects the results in job
// order: out[i] is job i's value regardless of which worker produced it or
// when, which is what makes a parallel sweep's table identical to the
// sequential one. Failed or skipped jobs leave the zero value at their
// index; the error's JobError indexes tell them apart from legitimate zeros.
func Map[T any](ctx context.Context, jobs int, fn func(ctx context.Context, i int) (T, error), opts Options) ([]T, error) {
	out := make([]T, max(jobs, 0))
	err := Run(ctx, jobs, func(ctx context.Context, i int) error {
		v, ferr := fn(ctx, i)
		if ferr != nil {
			return ferr
		}
		out[i] = v
		return nil
	}, opts)
	return out, err
}

// runOne executes job i with panic recovery and the per-job deadline.
func runOne(ctx context.Context, fn Func, i int, timeout time.Duration) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batch: job %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return fn(ctx, i)
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
