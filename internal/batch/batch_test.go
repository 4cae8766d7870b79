package batch_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestRunZeroJobs(t *testing.T) {
	called := false
	err := batch.Run(context.Background(), 0, func(context.Context, int) error {
		called = true
		return nil
	}, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for an empty job set")
	}
}

func TestRunNilContext(t *testing.T) {
	var ran atomic.Int32
	err := batch.Run(nil, 3, func(ctx context.Context, i int) error {
		if ctx == nil {
			return errors.New("nil ctx reached fn")
		}
		ran.Add(1)
		return nil
	}, batch.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran %d jobs, want 3", ran.Load())
	}
}

// TestMapDeterministic is the engine's core guarantee: result order and
// the seeds jobs derive from their index must not depend on the worker
// count.
func TestMapDeterministic(t *testing.T) {
	fn := func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("job%d:seed%d", i, batch.DeriveSeed(42, i)), nil
	}
	seq, err := batch.Map(context.Background(), 50, fn, batch.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := batch.Map(context.Background(), 50, fn, batch.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("row %d differs: sequential %q vs parallel %q", i, seq[i], par[i])
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	if batch.DeriveSeed(7, 3) != batch.DeriveSeed(7, 3) {
		t.Fatal("DeriveSeed is not deterministic")
	}
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := batch.DeriveSeed(0, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between jobs %d and %d", prev, i)
		}
		seen[s] = i
	}
	if batch.DeriveSeed(1, 0) == batch.DeriveSeed(2, 0) {
		t.Fatal("different bases produced the same seed for job 0")
	}
}

// jobErrors unpacks a CollectAll error into its per-job failures, in the
// order Run joined them.
func jobErrors(t *testing.T, err error) []*batch.JobError {
	t.Helper()
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("err = %v (%T), want a joined CollectAll error", err, err)
	}
	var out []*batch.JobError
	for _, e := range joined.Unwrap() {
		var je *batch.JobError
		if !errors.As(e, &je) {
			t.Fatalf("joined error %v is not a *batch.JobError", e)
		}
		out = append(out, je)
	}
	return out
}

// TestPanicRecovery: a panicking job must surface as that job's error with a
// stack trace while its worker keeps draining the queue.
func TestPanicRecovery(t *testing.T) {
	var completed atomic.Int32
	err := batch.Run(context.Background(), 8, func(_ context.Context, i int) error {
		if i == 3 {
			panic("boom")
		}
		completed.Add(1)
		return nil
	}, batch.Options{Workers: 2, Policy: batch.CollectAll})
	if err == nil {
		t.Fatal("panicking job reported no error")
	}
	if !strings.Contains(err.Error(), "panicked: boom") {
		t.Fatalf("error does not mention the panic: %v", err)
	}
	if !strings.Contains(err.Error(), "batch_test.go") {
		t.Fatalf("error lacks a stack trace: %v", err)
	}
	if completed.Load() != 7 {
		t.Fatalf("completed = %d, want 7", completed.Load())
	}
	if errs := jobErrors(t, err); len(errs) != 1 || errs[0].Index != 3 {
		t.Fatalf("failures = %+v, want exactly job 3", errs)
	}
}

// TestFailFastSkipsQueue: after the first failure the queued remainder must
// be skipped, not executed.
func TestFailFastSkipsQueue(t *testing.T) {
	var ran atomic.Int32
	sentinel := errors.New("first job broke")
	err := batch.Run(context.Background(), 64, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return sentinel
		}
		time.Sleep(time.Millisecond)
		return nil
	}, batch.Options{Workers: 2})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the job-0 failure", err)
	}
	var je *batch.JobError
	if !errors.As(err, &je) || je.Index != 0 {
		t.Fatalf("err = %v, want a *batch.JobError for job 0", err)
	}
	if ran.Load() == 64 {
		t.Fatal("no jobs skipped after batch.FailFast failure")
	}
}

// TestCollectAllRunsEverything: batch.CollectAll must execute all jobs and join all
// failures.
func TestCollectAllRunsEverything(t *testing.T) {
	var ran atomic.Int32
	err := batch.Run(context.Background(), 20, func(_ context.Context, i int) error {
		ran.Add(1)
		if i%5 == 0 {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	}, batch.Options{Workers: 4, Policy: batch.CollectAll})
	if ran.Load() != 20 {
		t.Fatalf("ran %d jobs, want all 20", ran.Load())
	}
	errs := jobErrors(t, err)
	if len(errs) != 4 {
		t.Fatalf("failures = %d, want 4", len(errs))
	}
	for i, je := range errs {
		if je.Index != i*5 {
			t.Fatalf("failures not sorted by index: %+v", errs)
		}
	}
	for i := 0; i < 20; i += 5 {
		if !strings.Contains(err.Error(), fmt.Sprintf("job %d", i)) {
			t.Fatalf("joined error missing job %d: %v", i, err)
		}
	}
}

// TestExternalCancellation: canceling the caller's context mid-queue must
// drain the pool promptly and report the cancellation cause.
func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	var ran atomic.Int32
	errCh := make(chan error, 1)
	go func() {
		errCh <- batch.Run(ctx, 100, func(jctx context.Context, i int) error {
			ran.Add(1)
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-jctx.Done():
				return jctx.Err()
			case <-time.After(10 * time.Second):
				return errors.New("job outlived the cancellation")
			}
		}, batch.Options{Workers: 2, Policy: batch.CollectAll})
	}()
	<-started
	cancel()
	var err error
	select {
	case err = <-errCh:
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not drain within 5s of cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "batch: canceled after 0 of 100 jobs") {
		t.Fatalf("err = %v, want the progress-so-far message", err)
	}
	if ran.Load() >= 100 {
		t.Fatalf("ran %d jobs, expected queued jobs to be skipped", ran.Load())
	}
}

// TestJobTimeout bounds a single runaway job without touching its siblings.
func TestJobTimeout(t *testing.T) {
	var completed atomic.Int32
	err := batch.Run(context.Background(), 4, func(ctx context.Context, i int) error {
		if i == 1 {
			<-ctx.Done() // runaway job, stopped only by its deadline
			return ctx.Err()
		}
		completed.Add(1)
		return nil
	}, batch.Options{Workers: 2, JobTimeout: 20 * time.Millisecond, Policy: batch.CollectAll})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if errs := jobErrors(t, err); completed.Load() != 3 || len(errs) != 1 || errs[0].Index != 1 {
		t.Fatalf("completed %d, failures %+v; want 3 completed and job 1 failed", completed.Load(), errs)
	}
}

// TestMetricsMerged: engine metrics from every worker land in the target
// registry, each written as its job ends, so a job reads the counts of the
// jobs its worker finished before it.
func TestMetricsMerged(t *testing.T) {
	reg := obs.NewRegistry()
	const jobs = 12
	err := batch.Run(context.Background(), jobs, func(_ context.Context, i int) error {
		// One worker runs the jobs in index order, so job i sees i jobs done.
		if got := reg.Snapshot()["batch_job_seconds_count"]; got != float64(i) {
			return fmt.Errorf("job %d read batch_job_seconds_count = %g, want %d", i, got, i)
		}
		if i == jobs-1 {
			return errors.New("last job fails")
		}
		return nil
	}, batch.Options{Workers: 1, Metrics: reg, Policy: batch.CollectAll})
	var je *batch.JobError
	if !errors.As(err, &je) || je.Index != jobs-1 || !strings.Contains(err.Error(), "last job fails") {
		t.Fatalf("err = %v, want only the last job's failure", err)
	}
	if err := batch.Run(context.Background(), jobs, func(context.Context, int) error { return nil },
		batch.Options{Workers: 3, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap["batch_workers"]; got != 3 {
		t.Fatalf("batch_workers = %g, want 3", got)
	}
	if got := snap["batch_queue_wait_seconds_count"]; got != 2*jobs {
		t.Fatalf("queue-wait observations = %g, want %d", got, 2*jobs)
	}
	if got := snap["batch_job_seconds_count"]; got != 2*jobs {
		t.Fatalf("job-duration observations = %g, want %d", got, 2*jobs)
	}
	if got := snap["batch_failures_total"]; got != 1 {
		t.Fatalf("batch_failures_total = %g, want 1", got)
	}
	total := 0.0
	for name, v := range snap {
		if strings.HasPrefix(name, "batch_jobs_total{") {
			total += v
		}
	}
	if total != 2*jobs {
		t.Fatalf("summed per-worker batch_jobs_total = %g, want %d", total, 2*jobs)
	}
}

// flipNet is a fast two-state loop whose SSA run at a huge horizon fires
// essentially forever — the e2e workload for cancellation tests.
func flipNet(t *testing.T) *crn.Network {
	t.Helper()
	n := crn.NewNetwork()
	n.R("ab", map[string]int{"A": 1}, map[string]int{"B": 1}, crn.Fast)
	n.R("ba", map[string]int{"B": 1}, map[string]int{"A": 1}, crn.Fast)
	if err := n.SetInit("A", 1); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSimJobTimeout runs real SSA simulations through the engine and checks
// the per-job deadline actually interrupts the firing loop.
func TestSimJobTimeout(t *testing.T) {
	n := flipNet(t)
	err := batch.Run(context.Background(), 2, func(ctx context.Context, i int) error {
		_, serr := sim.Run(ctx, n, sim.Config{
			Method: sim.SSA, TEnd: 1e12, Unit: 1000, SampleEvery: 1e9, Seed: batch.DeriveSeed(0, i),
		})
		return serr
	}, batch.Options{Workers: 2, JobTimeout: 50 * time.Millisecond, Policy: batch.CollectAll})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded from inside the SSA loop", err)
	}
	if !strings.Contains(err.Error(), "ssa interrupted") {
		t.Fatalf("error does not come from the SSA context poll: %v", err)
	}
}

// TestSimParallelDeterminism: identical seed grids through 1 and 4 workers
// must produce identical traces.
func TestSimParallelDeterminism(t *testing.T) {
	n := flipNet(t)
	runGrid := func(workers int) [][]float64 {
		finals, err := batch.Map(context.Background(), 6, func(ctx context.Context, i int) ([]float64, error) {
			tr, serr := sim.Run(ctx, n, sim.Config{
				Method: sim.SSA, TEnd: 1, Unit: 200, SampleEvery: 0.1, Seed: batch.DeriveSeed(99, i),
			})
			if serr != nil {
				return nil, serr
			}
			return []float64{tr.Final("A"), tr.Final("B")}, nil
		}, batch.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return finals
	}
	seq := runGrid(1)
	par := runGrid(4)
	for i := range seq {
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("job %d species %d: sequential %g vs parallel %g",
					i, j, seq[i][j], par[i][j])
			}
		}
	}
}
