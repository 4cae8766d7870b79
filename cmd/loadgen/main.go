// Command loadgen replays a representative traffic mix against a crnserved
// instance and reports latency and throughput per traffic class. Two classes
// model the server's real workload poles:
//
//   - simulate: a fixed, deterministic POST /v1/simulate request. Identical
//     bodies are response-cache hits after the first, so this class measures
//     the cache-hot fast path and the HTTP overhead floor.
//   - sweep: a seeded stochastic sweep job (POST /v1/jobs, polled to a
//     terminal state). This class measures end-to-end job throughput through
//     the job store and the batch pool.
//
// The generator issues requests at -qps (token bucket; 0 = as fast as the
// -concurrency workers allow) with -mix choosing the sweep fraction, stops
// after -duration or -requests (whichever comes first), and prints a JSON
// report: per-class request counts, error counts, p50/p90/p99/max latency,
// requests/sec, and aggregate sweep points/sec.
//
// Usage:
//
//	loadgen -target http://127.0.0.1:8080 -duration 10s -qps 50 -mix 0.05
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config collects the flag values; flags map onto it 1:1.
type config struct {
	target      string
	duration    time.Duration
	requests    int     // 0 = bounded by duration alone
	qps         float64 // 0 = unthrottled
	concurrency int
	mix         float64 // fraction of requests that are sweep jobs
	sweepPoints int
	seed        int64
	out         string // report path; "" = stdout
	timeout     time.Duration
}

func main() {
	var c config
	flag.StringVar(&c.target, "target", "http://127.0.0.1:8080", "crnserved base URL")
	flag.DurationVar(&c.duration, "duration", 10*time.Second, "how long to generate load")
	flag.IntVar(&c.requests, "requests", 0, "stop after this many requests (0 = duration-bounded)")
	flag.Float64Var(&c.qps, "qps", 0, "request rate (0 = as fast as -concurrency allows)")
	flag.IntVar(&c.concurrency, "concurrency", 4, "in-flight request cap")
	flag.Float64Var(&c.mix, "mix", 0.05, "fraction of requests that are sweep jobs")
	flag.IntVar(&c.sweepPoints, "sweep-points", 32, "points per sweep job")
	flag.Int64Var(&c.seed, "seed", 1, "RNG seed for the class sequence and sweep seeds")
	flag.StringVar(&c.out, "out", "", "write the JSON report here (empty = stdout)")
	flag.DurationVar(&c.timeout, "timeout", 5*time.Minute, "per-request deadline (sweep jobs: submit-to-terminal)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	b, _ := json.MarshalIndent(rep, "", "  ")
	b = append(b, '\n')
	if c.out == "" {
		os.Stdout.Write(b)
	} else if err := os.WriteFile(c.out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d requests in %.2fs — simulate p99 %.2fms, sweep %.1f points/s\n",
		rep.TotalRequests, rep.DurationSeconds, rep.Simulate.P99Ms, rep.SweepPointsPerSec)
}

// classStats summarizes one traffic class.
type classStats struct {
	Count  int     `json:"count"`
	Errors int     `json:"errors"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	RPS    float64 `json:"rps"`
}

// report is the JSON output of one loadgen run.
type report struct {
	Target            string     `json:"target"`
	DurationSeconds   float64    `json:"duration_seconds"`
	TotalRequests     int        `json:"total_requests"`
	Simulate          classStats `json:"simulate"`
	Sweep             classStats `json:"sweep"`
	SweepPoints       int        `json:"sweep_points_total"`
	SweepPointsPerSec float64    `json:"sweep_points_per_sec"`
}

// ticket is one unit of work handed to a load worker.
type ticket struct {
	sweep bool
	seed  int64 // per-job sweep seed, varied so jobs are genuinely distinct
}

// run generates the load and assembles the report. It is the whole program
// minus flag parsing and output, so tests drive it directly.
func run(ctx context.Context, c config) (report, error) {
	if c.concurrency < 1 {
		c.concurrency = 1
	}
	client := &http.Client{Timeout: c.timeout}
	rng := rand.New(rand.NewSource(c.seed))

	tickets := make(chan ticket)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var simLat, sweepLat []time.Duration
	simErrs, sweepErrs, pointsDone := 0, 0, 0

	for w := 0; w < c.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tickets {
				start := time.Now()
				var points int
				var err error
				if tk.sweep {
					points, err = doSweep(ctx, client, c, tk.seed)
				} else {
					err = doSimulate(ctx, client, c)
				}
				lat := time.Since(start)
				mu.Lock()
				if tk.sweep {
					sweepLat = append(sweepLat, lat)
					pointsDone += points
					if err != nil {
						sweepErrs++
					}
				} else {
					simLat = append(simLat, lat)
					if err != nil {
						simErrs++
					}
				}
				mu.Unlock()
			}
		}()
	}

	// Token bucket: one ticket per tick at -qps, or back-to-back when
	// unthrottled. The class sequence is drawn from the seeded RNG up front
	// in the generator, so a given (-seed, -mix) replays the same mix.
	began := time.Now()
	deadline := began.Add(c.duration)
	var tick <-chan time.Time
	if c.qps > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / c.qps))
		defer t.Stop()
		tick = t.C
	}
	issued := 0
gen:
	for (c.requests == 0 || issued < c.requests) && time.Now().Before(deadline) {
		if tick != nil {
			select {
			case <-tick:
			case <-ctx.Done():
				break gen
			}
		}
		tk := ticket{sweep: rng.Float64() < c.mix, seed: rng.Int63()}
		select {
		case tickets <- tk:
			issued++
		case <-ctx.Done():
			break gen
		}
	}
	close(tickets)
	wg.Wait()
	elapsed := time.Since(began)

	rep := report{
		Target:          c.target,
		DurationSeconds: elapsed.Seconds(),
		TotalRequests:   len(simLat) + len(sweepLat),
		Simulate:        summarize(simLat, simErrs, elapsed),
		Sweep:           summarize(sweepLat, sweepErrs, elapsed),
		SweepPoints:     pointsDone,
	}
	if elapsed > 0 {
		rep.SweepPointsPerSec = float64(pointsDone) / elapsed.Seconds()
	}
	if rep.TotalRequests == 0 {
		return rep, fmt.Errorf("no requests completed against %s", c.target)
	}
	return rep, nil
}

// summarize computes the latency percentiles of one class.
func summarize(lats []time.Duration, errs int, elapsed time.Duration) classStats {
	st := classStats{Count: len(lats), Errors: errs}
	if len(lats) == 0 {
		return st
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Millisecond)
	}
	st.P50Ms, st.P90Ms, st.P99Ms = pct(0.50), pct(0.90), pct(0.99)
	st.MaxMs = float64(lats[len(lats)-1]) / float64(time.Millisecond)
	if elapsed > 0 {
		st.RPS = float64(len(lats)) / elapsed.Seconds()
	}
	return st
}

// loadCRN is the fixed network both classes simulate: the paper's fast/slow
// clocked setting on a trivial reaction, cheap enough that job latency is
// dominated by server machinery, which is what loadgen measures.
const loadCRN = "init X = 100\nX -> Y : slow"

// doSimulate issues the cache-hot simulate request: a byte-identical body
// every time, so all but the first are response-cache hits.
func doSimulate(ctx context.Context, client *http.Client, c config) error {
	body := `{"crn":"init X = 100\nX -> Y : slow","t_end":1,"method":"ode","seed":7}`
	var out struct {
		Error string `json:"error"`
	}
	return postJSON(ctx, client, c.target+"/v1/simulate", []byte(body), &out)
}

// doSweep submits one sweep job and polls it to a terminal state, returning
// how many points completed.
func doSweep(ctx context.Context, client *http.Client, c config, seed int64) (int, error) {
	req, _ := json.Marshal(map[string]any{
		"crn": loadCRN, "t_end": 1, "method": "ssa", "unit": 200,
		"runs": c.sweepPoints, "seed": seed,
	})
	var st struct {
		ID        string `json:"id"`
		State     string `json:"state"`
		Completed int    `json:"completed"`
		Failed    int    `json:"failed"`
	}
	if err := postJSON(ctx, client, c.target+"/v1/jobs", req, &st); err != nil {
		return 0, err
	}
	for st.State == "queued" || st.State == "running" {
		select {
		case <-ctx.Done():
			return st.Completed, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if err := getJSON(ctx, client, c.target+"/v1/jobs/"+st.ID, &st); err != nil {
			return st.Completed, err
		}
	}
	if st.State != "done" {
		return st.Completed, fmt.Errorf("job %s ended %s (%d failed)", st.ID, st.State, st.Failed)
	}
	return st.Completed, nil
}

func postJSON(ctx context.Context, client *http.Client, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(client, req, out)
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(client, req, out)
}

func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
