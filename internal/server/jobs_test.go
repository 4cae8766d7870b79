package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// quickJob is a sweep that finishes in milliseconds.
func quickJob() JobRequest {
	return JobRequest{
		CRN: "init X = 1\nX -> Y : slow", TEnd: 2,
		Method: "ssa", Unit: 50, Seed: 11, Runs: 4,
	}
}

// longJob is a sweep whose points take minutes unless canceled.
func longJob(t testing.TB) JobRequest {
	return JobRequest{CRN: clockText(t), TEnd: 1e6, Fast: 300, Slow: 1, Runs: 8}
}

// pollJob polls GET /v1/jobs/{id} until the job reaches a terminal state.
func pollJob(t testing.TB, h http.Handler, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := do(t, h, "GET", "/v1/jobs/"+id, nil)
		if rec.Code != 200 {
			t.Fatalf("job status %d: %s", rec.Code, rec.Body.String())
		}
		st := decode[JobStatus](t, rec)
		if st.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after 30s: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobLifecycle: submit → 202 with Location → poll to done → per-point
// results with derived seeds; an identical resubmission reproduces the exact
// same finals (the sweep is deterministic from the request alone).
func TestJobLifecycle(t *testing.T) {
	s := New(Config{})
	run := func() JobStatus {
		rec := do(t, s.Handler(), "POST", "/v1/jobs", quickJob())
		if rec.Code != 202 {
			t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
		}
		st := decode[JobStatus](t, rec)
		if loc := rec.Header().Get("Location"); loc != "/v1/jobs/"+st.ID {
			t.Fatalf("Location %q for job %s", loc, st.ID)
		}
		return pollJob(t, s.Handler(), st.ID)
	}

	first := run()
	if first.State != "done" || first.Completed != 4 || first.Failed != 0 || first.Total != 4 {
		t.Fatalf("unexpected final status: %+v", first)
	}
	if len(first.Results) != 4 {
		t.Fatalf("%d results, want 4", len(first.Results))
	}
	for i, p := range first.Results {
		if p.Index != i || p.Err != "" || len(p.Final) == 0 {
			t.Fatalf("result %d malformed: %+v", i, p)
		}
		if p.Final["X"]+p.Final["Y"] != 1 {
			t.Fatalf("result %d does not conserve mass: %+v", i, p.Final)
		}
	}

	second := run()
	for i := range first.Results {
		a, b := first.Results[i], second.Results[i]
		if a.Seed != b.Seed {
			t.Fatalf("point %d seeds differ across identical jobs: %d vs %d", i, a.Seed, b.Seed)
		}
		for name, v := range a.Final {
			if b.Final[name] != v {
				t.Fatalf("point %d final[%s] differs: %v vs %v", i, name, v, b.Final[name])
			}
		}
	}
}

// TestJobRatioSweep: the ratio × runs cross product, with per-point ratios
// reported and the record projection applied.
func TestJobRatioSweep(t *testing.T) {
	s := New(Config{})
	rec := do(t, s.Handler(), "POST", "/v1/jobs", JobRequest{
		CRN: "init A = 1\nA -> B : slow\nB -> C : fast", TEnd: 5,
		Ratios: []float64{1, 10, 100}, Runs: 2, Record: []string{"C"},
	})
	if rec.Code != 202 {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}
	st := pollJob(t, s.Handler(), decode[JobStatus](t, rec).ID)
	if st.State != "done" || st.Total != 6 || st.Completed != 6 {
		t.Fatalf("unexpected final status: %+v", st)
	}
	wantRatios := []float64{1, 1, 10, 10, 100, 100}
	for i, p := range st.Results {
		if p.Ratio != wantRatios[i] {
			t.Errorf("point %d ratio %g, want %g", i, p.Ratio, wantRatios[i])
		}
		if len(p.Final) != 1 {
			t.Errorf("point %d finals %v, want only C", i, p.Final)
		}
	}
}

// TestJobCancel: DELETE aborts a long-running sweep promptly; never-started
// points keep their explanatory skipped marker, and cancellation is
// idempotent.
func TestJobCancel(t *testing.T) {
	s := New(Config{MaxConcurrentSims: 2})
	rec := do(t, s.Handler(), "POST", "/v1/jobs", longJob(t))
	if rec.Code != 202 {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}
	id := decode[JobStatus](t, rec).ID

	if rec := do(t, s.Handler(), "DELETE", "/v1/jobs/"+id, nil); rec.Code != 200 {
		t.Fatalf("cancel status %d: %s", rec.Code, rec.Body.String())
	}
	st := pollJob(t, s.Handler(), id)
	if st.State != "canceled" {
		t.Fatalf("state %q after cancel, want canceled", st.State)
	}
	if st.Completed == st.Total {
		t.Fatal("every point completed; cancellation had no effect")
	}
	skipped := 0
	for _, p := range st.Results {
		if p.Err == "skipped: job ended before this point started" {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("no point kept its skipped marker")
	}
	// Canceling again is a no-op reporting the same final state.
	rec = do(t, s.Handler(), "DELETE", "/v1/jobs/"+id, nil)
	if rec.Code != 200 || decode[JobStatus](t, rec).State != "canceled" {
		t.Fatalf("repeat cancel: status %d body %s", rec.Code, rec.Body.String())
	}
}

// TestJobValidation: the submit-side error surface.
func TestJobValidation(t *testing.T) {
	s := New(Config{Limits: Limits{MaxSweepPoints: 4}})
	cases := []struct {
		name   string
		req    JobRequest
		status int
		code   string
	}{
		{"missing crn", JobRequest{TEnd: 5}, 400, CodeInvalidRequest},
		{"tauleap method", JobRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 5, Method: "tauleap"}, 400, CodeInvalidRequest},
		{"bad crn", JobRequest{CRN: "X ->", TEnd: 5}, 400, CodeInvalidRequest},
		{"ratio below one", JobRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 5, Ratios: []float64{0.5}}, 400, CodeInvalidRequest},
		{"sweep too large", JobRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 5, Runs: 5}, 422, CodeLimitExceeded},
	}
	for _, c := range cases {
		rec := do(t, s.Handler(), "POST", "/v1/jobs", c.req)
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.status, rec.Body.String())
			continue
		}
		if got := decode[errorBody](t, rec).Error.Code; got != c.code {
			t.Errorf("%s: code %q, want %q", c.name, got, c.code)
		}
	}
	if rec := do(t, s.Handler(), "GET", "/v1/jobs/job-999999", nil); rec.Code != 404 {
		t.Errorf("unknown job status %d, want 404", rec.Code)
	}
	if rec := do(t, s.Handler(), "DELETE", "/v1/jobs/job-999999", nil); rec.Code != 404 {
		t.Errorf("unknown job cancel %d, want 404", rec.Code)
	}
}

// TestJobActiveLimit: admission control rejects with 429 once the active-job
// cap is reached, and frees the slot when the job ends.
func TestJobActiveLimit(t *testing.T) {
	s := New(Config{Limits: Limits{MaxActiveJobs: 1}, MaxConcurrentSims: 1})
	rec := do(t, s.Handler(), "POST", "/v1/jobs", longJob(t))
	if rec.Code != 202 {
		t.Fatalf("first submit status %d", rec.Code)
	}
	id := decode[JobStatus](t, rec).ID

	rec = do(t, s.Handler(), "POST", "/v1/jobs", quickJob())
	if rec.Code != 429 || decode[errorBody](t, rec).Error.Code != CodeUnavailable {
		t.Fatalf("second submit: status %d body %s", rec.Code, rec.Body.String())
	}

	do(t, s.Handler(), "DELETE", "/v1/jobs/"+id, nil)
	pollJob(t, s.Handler(), id)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if rec := do(t, s.Handler(), "POST", "/v1/jobs", quickJob()); rec.Code == 202 {
			pollJob(t, s.Handler(), decode[JobStatus](t, rec).ID)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admission slot never freed after the first job ended")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobRetention: finished jobs beyond RetainJobs are evicted oldest-first
// while recent ones stay queryable.
func TestJobRetention(t *testing.T) {
	s := New(Config{RetainJobs: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		rec := do(t, s.Handler(), "POST", "/v1/jobs", quickJob())
		if rec.Code != 202 {
			t.Fatalf("submit %d status %d", i, rec.Code)
		}
		id := decode[JobStatus](t, rec).ID
		pollJob(t, s.Handler(), id)
		ids = append(ids, id)
	}
	// Retirement runs on the completion watcher; give eviction a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rec := do(t, s.Handler(), "GET", "/v1/jobs/"+ids[0], nil); rec.Code == 404 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oldest job %s never evicted", ids[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rec := do(t, s.Handler(), "GET", "/v1/jobs/"+ids[3], nil); rec.Code != 200 {
		t.Fatalf("newest job %s not queryable: %d", ids[3], rec.Code)
	}
}

// TestJobsConcurrent exercises the store under the race detector: parallel
// submission, status polling, cancellation and listing all interleave.
func TestJobsConcurrent(t *testing.T) {
	s := New(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := quickJob()
			req.Seed = int64(g + 1)
			rec := do(t, s.Handler(), "POST", "/v1/jobs", req)
			if rec.Code != 202 {
				t.Errorf("goroutine %d: submit status %d", g, rec.Code)
				return
			}
			id := decode[JobStatus](t, rec).ID
			if g%2 == 0 {
				do(t, s.Handler(), "DELETE", "/v1/jobs/"+id, nil)
			}
			st := pollJob(t, s.Handler(), id)
			if st.State != "done" && st.State != "canceled" {
				t.Errorf("goroutine %d: state %q", g, st.State)
			}
			do(t, s.Handler(), "GET", "/v1/jobs", nil)
			do(t, s.Handler(), "GET", "/metrics", nil)
		}(g)
	}
	wg.Wait()
	// Every job is terminal, so no job is live: queued + active (the live
	// job count) and the pending points must all read zero. Poll rather than
	// assert a racy instant.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := s.Registry().Snapshot()
		live := snap["jobs_queued"] + snap["jobs_active"]
		if live == 0 && snap["server_job_points_pending"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges never settled: queued+active=%g pending=%g",
				live, snap["server_job_points_pending"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrain: graceful shutdown rejects new work, lets quick jobs finish, and
// force-cancels jobs that exceed the drain budget.
func TestDrain(t *testing.T) {
	s := New(Config{MaxConcurrentSims: 2})
	rec := do(t, s.Handler(), "POST", "/v1/jobs", longJob(t))
	if rec.Code != 202 {
		t.Fatalf("submit status %d", rec.Code)
	}
	id := decode[JobStatus](t, rec).ID

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if forced := s.Drain(ctx); forced != 1 {
		t.Fatalf("Drain force-canceled %d jobs, want 1", forced)
	}
	st := pollJob(t, s.Handler(), id)
	if st.State != "canceled" {
		t.Fatalf("state %q after drain, want canceled", st.State)
	}
	if rec := do(t, s.Handler(), "POST", "/v1/jobs", quickJob()); rec.Code != 503 {
		t.Fatalf("submit while draining: status %d, want 503", rec.Code)
	}
}

// TestDrainIdle: draining an idle server returns immediately with nothing
// forced.
func TestDrainIdle(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if forced := s.Drain(ctx); forced != 0 {
		t.Fatalf("idle Drain forced %d", forced)
	}
}

// submitAndWait runs one job to a terminal state through a server's handler.
func submitAndWait(t *testing.T, s *Server, req JobRequest) JobStatus {
	t.Helper()
	rec := do(t, s.Handler(), "POST", "/v1/jobs", req)
	if rec.Code != 202 {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}
	return pollJob(t, s.Handler(), decode[JobStatus](t, rec).ID)
}

// TestSweepGoldenBitIdentical pins the sweep determinism contract: point i
// takes ratio Ratios[i/runs] and seed batch.DeriveSeed(seed, i) whichever
// worker runs it, so the results are byte-identical at any worker count.
func TestSweepGoldenBitIdentical(t *testing.T) {
	req := JobRequest{
		CRN: clockText(t), TEnd: 60, Fast: 300, Slow: 1,
		Method: "ssa", Seed: 42, Runs: 4, Ratios: []float64{100, 300, 600},
	} // 12 points with a live ratio axis: the fast rate genuinely differs per ratio
	results := func(t *testing.T, workers int) []byte {
		t.Helper()
		st := submitAndWait(t, New(Config{MaxConcurrentSims: workers}), req)
		if st.State != "done" || st.Completed != 12 || st.Failed != 0 {
			t.Fatalf("workers=%d: state=%q completed=%d failed=%d: %s",
				workers, st.State, st.Completed, st.Failed, st.Error)
		}
		b, err := json.Marshal(st.Results)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	golden := results(t, 1)
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			if got := results(t, n); string(got) != string(golden) {
				t.Fatalf("results differ from the one-worker run\n got: %s\nwant: %s", got, golden)
			}
		})
	}
}

// TestJobCanceledWhileQueued is the regression test for the queued-job
// lifecycle: a job canceled before its first point ever starts must still
// reach a terminal state, keep its skip markers (not failures), release the
// jobs_queued gauge, and be retention-evicted like any finished job.
func TestJobCanceledWhileQueued(t *testing.T) {
	s := New(Config{MaxConcurrentSims: 1, RetainJobs: 1})

	// Occupy the only simulation slot so the next job stays queued.
	rec := do(t, s.Handler(), "POST", "/v1/jobs", longJob(t))
	blocker := decode[JobStatus](t, rec).ID
	waitState(t, s, blocker, "running")

	rec = do(t, s.Handler(), "POST", "/v1/jobs", quickJob())
	if rec.Code != 202 {
		t.Fatalf("submit status %d", rec.Code)
	}
	queued := decode[JobStatus](t, rec)
	if queued.State != "queued" {
		t.Fatalf("second job admitted as %q, want queued", queued.State)
	}
	if m := metricsText(t, s); !strings.Contains(m, "jobs_queued 1") {
		t.Fatalf("/metrics while queued lacks jobs_queued 1:\n%s", m)
	}

	if rec := do(t, s.Handler(), "DELETE", "/v1/jobs/"+queued.ID, nil); rec.Code != 200 {
		t.Fatalf("cancel queued job: %d", rec.Code)
	}
	st := pollJob(t, s.Handler(), queued.ID)
	if st.State != "canceled" {
		t.Fatalf("canceled-while-queued job ended %q, want canceled", st.State)
	}
	if st.Completed != 0 || st.Failed != 0 {
		t.Fatalf("queued job counted work: completed=%d failed=%d", st.Completed, st.Failed)
	}
	for _, r := range st.Results {
		if !strings.HasPrefix(r.Err, "skipped") {
			t.Fatalf("point %d of a never-started job: %q, want a skipped marker", r.Index, r.Err)
		}
	}
	if m := metricsText(t, s); !strings.Contains(m, "jobs_queued 0") {
		t.Fatalf("jobs_queued gauge not released:\n%s", m)
	}

	// Unblock the slot and push more finished jobs through; with RetainJobs 1
	// the canceled-while-queued job must age out of retention like any other
	// finished job (the regression left it unretired and unevictable).
	do(t, s.Handler(), "DELETE", "/v1/jobs/"+blocker, nil)
	submitAndWait(t, s, quickJob())
	submitAndWait(t, s, quickJob())
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rec := do(t, s.Handler(), "GET", "/v1/jobs/"+queued.ID, nil); rec.Code == 404 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled-while-queued job %s never retention-evicted", queued.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobRetainedCountExact: a job enters the store before its engine
// starts, so even a job that finishes at once is counted when it retires.
// With RetainJobs 1, each of twenty one-point jobs run back to back leaves
// exactly itself listed once it is done, having evicted every job before it.
func TestJobRetainedCountExact(t *testing.T) {
	s := New(Config{RetainJobs: 1})
	req := JobRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 0.5, Method: "ssa", Unit: 10, Seed: 3}
	for k := 0; k < 20; k++ {
		if st := submitAndWait(t, s, req); st.State != "done" {
			t.Fatalf("job %d ended %q: %s", k, st.State, st.Error)
		}
		list := decode[struct {
			Jobs []JobStatus `json:"jobs"`
		}](t, do(t, s.Handler(), "GET", "/v1/jobs", nil))
		if len(list.Jobs) > 1 {
			t.Fatalf("after job %d: %d jobs listed with RetainJobs 1", k, len(list.Jobs))
		}
		if got := s.Registry().Snapshot()["jobs_evicted_total"]; got != float64(k) {
			t.Fatalf("after job %d: jobs_evicted_total = %g, want %d", k, got, k)
		}
	}
}

// waitState polls one job until it reports the wanted live state.
func waitState(t *testing.T, s *Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := do(t, s.Handler(), "GET", "/v1/jobs/"+id, nil)
		if st := decode[JobStatus](t, rec); st.State == want {
			return
		} else if st.terminal() {
			t.Fatalf("job %s went terminal (%q) while waiting for %q", id, st.State, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %q", id, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metricsText fetches the Prometheus exposition.
func metricsText(t *testing.T, s *Server) string {
	t.Helper()
	rec := do(t, s.Handler(), "GET", "/metrics", nil)
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}
