package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/clock"
	"repro/internal/crn"
	"repro/internal/phases"
	"repro/internal/sim"
)

// clockText renders the paper's tri-phase molecular clock in the .crn text
// format — the canonical request payload of the end-to-end tests.
func clockText(t testing.TB) string {
	t.Helper()
	n := crn.NewNetwork()
	s := phases.NewScheme(n, "ph")
	if _, err := clock.Add(s, "clk", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return n.String()
}

// do drives the in-process handler with a JSON body and returns the recorder.
func do(t testing.TB, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		enc, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(enc)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// decode unmarshals a recorder body, failing the test on malformed JSON.
func decode[T any](t testing.TB, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad JSON response %q: %v", rec.Body.String(), err)
	}
	return v
}

// TestSimulateGoldenClock is the acceptance proof: POST /v1/simulate of the
// tri-phase clock returns exactly the trajectory sim.Run produces when called
// directly on the same parsed network — same species, same sample times, same
// values bit for bit.
func TestSimulateGoldenClock(t *testing.T) {
	s := New(Config{})
	text := clockText(t)

	rec := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		CRN: text, TEnd: 20, Fast: 300, Slow: 1,
	})
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := decode[SimulateResponse](t, rec)

	net, err := crn.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(context.Background(), net, sim.Config{
		Rates: sim.Rates{Fast: 300, Slow: 1}, TEnd: 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Species) != len(want.Names) {
		t.Fatalf("species count %d != %d", len(got.Species), len(want.Names))
	}
	for i, n := range want.Names {
		if got.Species[i] != n {
			t.Fatalf("species[%d] = %q, want %q", i, got.Species[i], n)
		}
	}
	if len(got.T) != len(want.T) {
		t.Fatalf("sample count %d != %d", len(got.T), len(want.T))
	}
	for k := range want.T {
		if got.T[k] != want.T[k] {
			t.Fatalf("t[%d] = %v, want %v", k, got.T[k], want.T[k])
		}
		for j := range want.Names {
			if got.Rows[k][j] != want.Rows[k][j] {
				t.Fatalf("rows[%d][%d] (%s) = %v, want %v",
					k, j, want.Names[j], got.Rows[k][j], want.Rows[k][j])
			}
		}
	}
	for _, n := range want.Names {
		if got.Final[n] != want.Final(n) {
			t.Fatalf("final[%s] = %v, want %v", n, got.Final[n], want.Final(n))
		}
	}
}

// TestSimulateCacheDeterminism: repeated identical requests must be served
// from the response cache with byte-identical bodies, and the hit must be
// visible both in the X-Cache header and in the /metrics exposition.
func TestSimulateCacheDeterminism(t *testing.T) {
	s := New(Config{})
	req := SimulateRequest{CRN: clockText(t), TEnd: 10, Fast: 300, Slow: 1}

	first := do(t, s.Handler(), "POST", "/v1/simulate", req)
	if first.Code != 200 || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	second := do(t, s.Handler(), "POST", "/v1/simulate", req)
	if second.Code != 200 || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second request: status %d, X-Cache %q", second.Code, second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cached response body differs from the original")
	}

	// Textually different but semantically identical requests (a comment and
	// an explicit default) canonicalize onto the same cache entry.
	equiv := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		CRN:  "# the same clock, reformatted\n" + clockText(t),
		TEnd: 10, Fast: 300, Slow: 1, Method: "ode",
	})
	if equiv.Header().Get("X-Cache") != "hit" {
		t.Errorf("equivalent request missed the cache")
	}
	if !bytes.Equal(first.Body.Bytes(), equiv.Body.Bytes()) {
		t.Error("equivalent request body differs")
	}

	metrics := do(t, s.Handler(), "GET", "/metrics", nil).Body.String()
	if !strings.Contains(metrics, `cache_hits_total{cache="response"} 2`) {
		t.Errorf("metrics missing response-cache hits:\n%s", metrics)
	}
	if !strings.Contains(metrics, `cache_hits_total{cache="network"}`) {
		t.Errorf("metrics missing network-cache family")
	}
}

// TestSimulateStochasticCaching: stochastic runs are cacheable only under an
// explicit seed — an unseeded SSA request must never be served from cache.
func TestSimulateStochasticCaching(t *testing.T) {
	s := New(Config{})
	text := "init X = 1\nX -> Y : slow"

	seeded := SimulateRequest{CRN: text, TEnd: 2, Method: "ssa", Unit: 50, Seed: 7}
	do(t, s.Handler(), "POST", "/v1/simulate", seeded)
	if rec := do(t, s.Handler(), "POST", "/v1/simulate", seeded); rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("seeded SSA request not cached")
	}

	unseeded := SimulateRequest{CRN: text, TEnd: 2, Method: "ssa", Unit: 50}
	do(t, s.Handler(), "POST", "/v1/simulate", unseeded)
	if rec := do(t, s.Handler(), "POST", "/v1/simulate", unseeded); rec.Header().Get("X-Cache") != "miss" {
		t.Errorf("unseeded SSA request served from cache")
	}
}

// TestSimulateEnsemble: runs > 1 switches the endpoint to the multi-run
// path — per-run final states plus across-run statistics, bit-identical to
// a direct sim.RunMany of the same spec, with per-run seeds derived exactly
// like sweep-job points.
func TestSimulateEnsemble(t *testing.T) {
	s := New(Config{})
	text := "init X = 30\nX -> Y : slow"
	rec := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		CRN: text, TEnd: 2, Method: "ssa", Unit: 50, Seed: 11, Runs: 5,
		Record: []string{"Y"},
	})
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := decode[SimulateResponse](t, rec)
	if got.Ensemble == nil {
		t.Fatalf("no ensemble in response: %s", rec.Body.String())
	}
	if len(got.T) != 0 || len(got.Rows) != 0 {
		t.Fatal("ensemble response carries a trajectory")
	}
	if len(got.Species) != 1 || got.Species[0] != "Y" {
		t.Fatalf("species = %v, want [Y]", got.Species)
	}
	e := got.Ensemble
	if e.Runs != 5 || e.OK != 5 || len(e.PerRun) != 5 {
		t.Fatalf("ensemble shape: runs %d ok %d per_run %d", e.Runs, e.OK, len(e.PerRun))
	}

	net, err := crn.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunMany(context.Background(), net, sim.BatchConfig{
		Base: sim.Config{Method: sim.SSA, Rates: sim.DefaultRates(),
			TEnd: 2, Unit: 50, Seed: 11},
		Runs: 5, FinalsOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	yi, ok := want.Index("Y")
	if !ok {
		t.Fatal("no Y column")
	}
	for i, r := range e.PerRun {
		if wantSeed := batch.DeriveSeed(11, i); r.Seed != wantSeed {
			t.Errorf("run %d seed %d, want %d", i, r.Seed, wantSeed)
		}
		if len(r.Final) != 1 || r.Final["Y"] != want.Finals[i][yi] {
			t.Errorf("run %d final %v, want Y=%v", i, r.Final, want.Finals[i][yi])
		}
		if r.Err != "" {
			t.Errorf("run %d error %q", i, r.Err)
		}
	}
	if mean := want.Mean(); e.Mean["Y"] != mean[yi] {
		t.Errorf("mean %v, want %v", e.Mean["Y"], mean[yi])
	}
	if sd := want.Stddev(); e.Stddev["Y"] != sd[yi] {
		t.Errorf("stddev %v, want %v", e.Stddev["Y"], sd[yi])
	}
}

// TestSimulateEnsembleCaching: an ensemble is cacheable when its RNG streams
// are pinned — an explicit seed set or a non-zero base seed — and the seed
// set is part of the key; an unseeded stochastic ensemble never caches.
func TestSimulateEnsembleCaching(t *testing.T) {
	s := New(Config{})
	text := "init X = 1\nX -> Y : slow"

	seeded := SimulateRequest{CRN: text, TEnd: 2, Method: "ssa", Unit: 50, Seeds: []int64{3, 9}}
	do(t, s.Handler(), "POST", "/v1/simulate", seeded)
	if rec := do(t, s.Handler(), "POST", "/v1/simulate", seeded); rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("explicitly seeded ensemble not cached")
	}
	other := seeded
	other.Seeds = []int64{3, 10}
	if rec := do(t, s.Handler(), "POST", "/v1/simulate", other); rec.Header().Get("X-Cache") != "miss" {
		t.Errorf("different seed set served from cache")
	}

	unseeded := SimulateRequest{CRN: text, TEnd: 2, Method: "ssa", Unit: 50, Runs: 3}
	do(t, s.Handler(), "POST", "/v1/simulate", unseeded)
	if rec := do(t, s.Handler(), "POST", "/v1/simulate", unseeded); rec.Header().Get("X-Cache") != "miss" {
		t.Errorf("unseeded ensemble served from cache")
	}
}

// TestSimulateConfigErrorFields: configuration failures carry per-field
// diagnostics in the error envelope.
func TestSimulateConfigErrorFields(t *testing.T) {
	s := New(Config{})
	rec := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		CRN: "init X = 1\nX -> Y : slow", // no horizon
	})
	if rec.Code != 400 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := decode[errorBody](t, rec)
	if got.Error.Code != CodeInvalidRequest {
		t.Fatalf("code %q", got.Error.Code)
	}
	if len(got.Error.Fields) != 1 || got.Error.Fields[0].Field != "TEnd" {
		t.Fatalf("fields = %+v, want one TEnd entry", got.Error.Fields)
	}
}

// TestSimulateRecordProjection: the record option restricts the returned
// columns, in the requested order.
func TestSimulateRecordProjection(t *testing.T) {
	s := New(Config{})
	rec := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		CRN: "init A = 1\nA -> B : slow\nB -> C : fast", TEnd: 5,
		Record: []string{"C", "A"},
	})
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := decode[SimulateResponse](t, rec)
	if len(got.Species) != 2 || got.Species[0] != "C" || got.Species[1] != "A" {
		t.Fatalf("species = %v, want [C A]", got.Species)
	}
	for _, row := range got.Rows {
		if len(row) != 2 {
			t.Fatalf("row width %d, want 2", len(row))
		}
	}
}

// TestSimulateExperiment: a named experiment runs through the same endpoint
// and returns its rendered table; the repeat request hits the cache.
func TestSimulateExperiment(t *testing.T) {
	s := New(Config{})
	req := SimulateRequest{Experiment: "E1", Quick: true, Seed: 1}
	rec := do(t, s.Handler(), "POST", "/v1/simulate", req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := decode[SimulateResponse](t, rec)
	if got.Result == nil || got.Result.ID != "E1" || len(got.Result.Rows) == 0 {
		t.Fatalf("experiment result missing or empty: %+v", got.Result)
	}
	if rec := do(t, s.Handler(), "POST", "/v1/simulate", req); rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("repeated experiment request not cached")
	}
}

// TestSimulateExperimentMetrics: a served scalar experiment reports its
// simulations into the server registry. E9 quick runs one ideal and one
// DNA-compiled ODE simulation.
func TestSimulateExperimentMetrics(t *testing.T) {
	s := New(Config{})
	rec := do(t, s.Handler(), "POST", "/v1/simulate", `{"experiment":"E9","quick":true}`)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if m := metricsText(t, s); !strings.Contains(m, "\nsim_runs_total{sim=\"ode\"} 2\n") {
		t.Fatalf("/metrics lacks sim_runs_total{sim=\"ode\"} 2:\n%s", m)
	}
}

// TestExperimentsList: the registry is browsable.
func TestExperimentsList(t *testing.T) {
	s := New(Config{})
	rec := do(t, s.Handler(), "GET", "/v1/experiments", nil)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	got := decode[map[string][]map[string]any](t, rec)
	if len(got["experiments"]) < 10 {
		t.Fatalf("only %d experiments listed", len(got["experiments"]))
	}
}

// errorBody is the structured error envelope every failure must use.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Fields  []struct {
			Field   string `json:"field"`
			Message string `json:"message"`
		} `json:"fields"`
	} `json:"error"`
}

// TestSimulateErrors walks the request-validation surface: every failure is
// a structured JSON error with the right status and code.
func TestSimulateErrors(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name   string
		body   any
		status int
		code   string
	}{
		{"malformed JSON", "{nope", 400, CodeInvalidRequest},
		{"unknown field", `{"crn":"x","warp":9}`, 400, CodeInvalidRequest},
		{"neither crn nor experiment", SimulateRequest{TEnd: 5}, 400, CodeInvalidRequest},
		{"both crn and experiment", SimulateRequest{CRN: "init X = 1\nX -> Y : slow", Experiment: "E1", TEnd: 5}, 400, CodeInvalidRequest},
		{"bad method", SimulateRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 5, Method: "euler"}, 400, CodeInvalidRequest},
		{"tauleap method", SimulateRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 5, Method: "tauleap"}, 400, CodeInvalidRequest},
		{"bad crn text", SimulateRequest{CRN: "X ->", TEnd: 5}, 400, CodeInvalidRequest},
		{"unused species", SimulateRequest{CRN: "species Ghost\ninit X = 1\nX -> Y : slow", TEnd: 5}, 400, CodeInvalidRequest},
		{"missing horizon", SimulateRequest{CRN: "init X = 1\nX -> Y : slow"}, 400, CodeInvalidRequest},
		{"inverted rates", SimulateRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 5, Fast: 1, Slow: 100}, 400, CodeInvalidRequest},
		{"negative runs", SimulateRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 5, Runs: -2}, 400, CodeInvalidRequest},
		{"runs on experiment", SimulateRequest{Experiment: "E1", Runs: 3}, 400, CodeInvalidRequest},
		{"runs/seeds mismatch", SimulateRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 5, Method: "ssa", Runs: 3, Seeds: []int64{1, 2}}, 400, CodeInvalidRequest},
		{"unknown experiment", SimulateRequest{Experiment: "E99"}, 404, CodeNotFound},
		{"unknown record species", SimulateRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 5, Record: []string{"Z"}}, 400, CodeInvalidRequest},
		{"trace too large", hugeTrace, 400, CodeInvalidRequest},
	}
	for _, c := range cases {
		rec := do(t, s.Handler(), "POST", "/v1/simulate", c.body)
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.status, rec.Body.String())
			continue
		}
		got := decode[errorBody](t, rec)
		if got.Error.Code != c.code {
			t.Errorf("%s: code %q, want %q", c.name, got.Error.Code, c.code)
		}
		if got.Error.Message == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}
	// The job path bounds the trace the same way, at submit.
	rec := do(t, s.Handler(), "POST", "/v1/jobs", hugeTrace)
	if rec.Code != 400 || decode[errorBody](t, rec).Error.Code != CodeInvalidRequest {
		t.Errorf("job with a too-large trace: status %d (%s), want 400 %s", rec.Code, rec.Body.String(), CodeInvalidRequest)
	}
}

// TestInvalidConfigSkipsQueue: a CRN body whose config can only be a 400 is
// rejected at once, even with every simulation slot taken, and never
// counts a slot wait.
func TestInvalidConfigSkipsQueue(t *testing.T) {
	s := New(Config{MaxConcurrentSims: 1, SimTimeout: time.Minute})
	if _, err := s.acquireSim(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.releaseSim()
	waits := s.Registry().Snapshot()["server_sim_wait_seconds_count"]
	start := time.Now()
	rec := do(t, s.Handler(), "POST", "/v1/simulate", hugeTrace)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("invalid request took %v behind the held slot", elapsed)
	}
	if rec.Code != 400 || decode[errorBody](t, rec).Error.Code != CodeInvalidRequest {
		t.Fatalf("status %d body %s, want 400 %s", rec.Code, rec.Body.String(), CodeInvalidRequest)
	}
	if got := s.Registry().Snapshot()["server_sim_wait_seconds_count"]; got != waits {
		t.Fatalf("server_sim_wait_seconds_count %g -> %g, want unchanged", waits, got)
	}
}

// hugeTrace asks for 1e16 sample rows, past sim.MaxTraceCells; the body is
// valid for both /v1/simulate and /v1/jobs.
const hugeTrace = `{"crn":"init X = 1\nX -> Y : slow","t_end":1e6,"sample_every":1e-10}`

// seriesCount counts the sample lines of the /metrics exposition.
func seriesCount(t *testing.T, s *Server) int {
	t.Helper()
	n := 0
	for _, line := range strings.Split(metricsText(t, s), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

// TestMetricsSeriesBounded pins that /metrics does not grow with the
// networks the server sees: SSA requests and watched SSA jobs over networks
// that differ only in species and reaction names leave as many series
// after 20 rounds as after 5. Per-species detail lives on spans, the event
// stream and the JSONL log, not in metric labels.
func TestMetricsSeriesBounded(t *testing.T) {
	s := New(Config{MaxConcurrentSims: 1})
	metricsText(t, s) // a scrape counts itself from the second one on
	var after5 int
	for i := 1; i <= 20; i++ {
		text := fmt.Sprintf("init A%d = 1\nA%d -> B%d : slow\nB%d -> C%d : slow\n", i, i, i, i, i)
		rec := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
			CRN: text, Method: "ssa", TEnd: 5, Seed: 1,
		})
		if rec.Code != 200 {
			t.Fatalf("round %d: simulate status %d: %s", i, rec.Code, rec.Body.String())
		}
		st := submitAndWait(t, s, JobRequest{CRN: text, Method: "ssa", TEnd: 5, Seed: 1, Watch: true})
		if st.State != "done" {
			t.Fatalf("round %d: job %s: %+v", i, st.State, st)
		}
		if i == 5 {
			after5 = seriesCount(t, s)
		}
	}
	if after20 := seriesCount(t, s); after20 != after5 {
		t.Errorf("/metrics holds %d series after 5 rounds and %d after 20:\n%s", after5, after20, metricsText(t, s))
	}
	body := metricsText(t, s)
	for _, want := range []string{`clock_edges_total{dir="rise"}`, "phase_changes_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("watched jobs left no %s series", want)
		}
	}
}

// TestServedSSATightLoop: a served single SSA run without watchers is
// observed for /metrics but not hooked, so it takes the tight loop.
func TestServedSSATightLoop(t *testing.T) {
	s := New(Config{})
	rec := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		CRN: clockText(t), Method: "ssa", TEnd: 5, Fast: 300, Slow: 1, Seed: 1,
	})
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	body := metricsText(t, s)
	if !strings.Contains(body, `kernel_ssa_loops_total{loop="tight"} 1`) {
		t.Errorf("served SSA run not counted in the tight loop:\n%s", body)
	}
	if strings.Contains(body, `loop="full"`) {
		t.Errorf("served SSA run counted as hooked:\n%s", body)
	}
	if !strings.Contains(body, `sim_runs_total{sim="ssa"} 1`) {
		t.Errorf("served SSA run not counted in sim_runs_total:\n%s", body)
	}
}

// TestLimits: the body, species and reaction caps reject with the structured
// too_large / limit_exceeded codes.
func TestLimits(t *testing.T) {
	s := New(Config{Limits: Limits{MaxBodyBytes: 200, MaxSpecies: 3, MaxReactions: 2}})

	big := SimulateRequest{CRN: strings.Repeat("# padding\n", 50) + "init X = 1\nX -> Y : slow", TEnd: 5}
	if rec := do(t, s.Handler(), "POST", "/v1/simulate", big); rec.Code != 413 {
		t.Errorf("oversized body: status %d, want 413", rec.Code)
	}

	fourSpecies := SimulateRequest{CRN: "init A = 1\nA -> B : slow\nC -> D : slow\ninit C = 1", TEnd: 5}
	rec := do(t, s.Handler(), "POST", "/v1/simulate", fourSpecies)
	if rec.Code != 422 || decode[errorBody](t, rec).Error.Code != CodeLimitExceeded {
		t.Errorf("species limit: status %d body %s", rec.Code, rec.Body.String())
	}

	threeReactions := SimulateRequest{CRN: "init A = 1\nA -> B : slow\nB -> A : slow\nA -> B : fast", TEnd: 5}
	rec = do(t, s.Handler(), "POST", "/v1/simulate", threeReactions)
	if rec.Code != 422 || decode[errorBody](t, rec).Error.Code != CodeLimitExceeded {
		t.Errorf("reaction limit: status %d body %s", rec.Code, rec.Body.String())
	}
}

// promLine matches Prometheus text-format sample and comment lines.
var promLine = regexp.MustCompile(`^(# (TYPE|HELP) .*|[A-Za-z_:][A-Za-z0-9_:]*(\{([A-Za-z_][A-Za-z0-9_]*="[^"]*",?)*\})? [-+0-9eE.infNa]+)$`)

// TestMetricsEndpoint: /metrics must be valid text exposition and include
// the request counters the middleware records.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 2})
	rec := do(t, s.Handler(), "GET", "/metrics", nil)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := strings.TrimRight(rec.Body.String(), "\n")
	for _, line := range strings.Split(body, "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("not Prometheus text format: %q", line)
		}
	}
	for _, want := range []string{
		`http_requests_total{route="POST /v1/simulate",code="200"} 1`,
		"http_in_flight",
		`cache_entries{cache="network"}`,
		"server_sims_inflight",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHealthEndpoints: liveness always succeeds; readiness flips to 503 when
// draining starts, and new simulation work is rejected while status reads
// stay served.
func TestHealthEndpoints(t *testing.T) {
	s := New(Config{})
	if rec := do(t, s.Handler(), "GET", "/healthz", nil); rec.Code != 200 {
		t.Fatalf("healthz %d", rec.Code)
	}
	if rec := do(t, s.Handler(), "GET", "/readyz", nil); rec.Code != 200 {
		t.Fatalf("readyz %d before drain", rec.Code)
	}
	s.StartDrain()
	if rec := do(t, s.Handler(), "GET", "/readyz", nil); rec.Code != 503 {
		t.Fatalf("readyz %d while draining, want 503", rec.Code)
	}
	if rec := do(t, s.Handler(), "GET", "/healthz", nil); rec.Code != 200 {
		t.Fatalf("healthz %d while draining", rec.Code)
	}
	rec := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 2})
	if rec.Code != 503 || decode[errorBody](t, rec).Error.Code != CodeUnavailable {
		t.Fatalf("simulate while draining: status %d body %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s.Handler(), "GET", "/metrics", nil); rec.Code != 200 {
		t.Fatalf("metrics %d while draining", rec.Code)
	}
}

// TestDebugHandlerRoutes: the pprof surface, tracez and the metrics mirror
// answer on the debug mux, none of pprof leaks onto the public handler,
// and the metric-history, alerting, flight-recorder and dashboard routes
// exist on neither.
func TestDebugHandlerRoutes(t *testing.T) {
	s := New(Config{})
	dbg := s.DebugHandler()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/metrics", "/debug/tracez"} {
		rec := httptest.NewRecorder()
		dbg.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("debug %s: %d", path, rec.Code)
		}
	}
	gone := []string{"/debug/statusz", "/debug/query?metric=http_requests_total", "/debug/tsdb",
		"/debug/flightz", "/debug/flightz/f000001"}
	for _, h := range []struct {
		name  string
		h     http.Handler
		paths []string
	}{
		{"debug", dbg, gone},
		{"public", s.Handler(), append([]string{"/debug/pprof/", "/debug/pprof/profile"}, gone...)},
	} {
		for _, path := range h.paths {
			rec := httptest.NewRecorder()
			h.h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusNotFound {
				t.Errorf("%s %s: %d, want 404", h.name, path, rec.Code)
			}
		}
	}
}

// TestClientDisconnectCancelsSimulation: when the client goes away
// mid-simulation, the server must abort the run through its context —
// freeing the semaphore slot — instead of integrating a huge horizon to
// completion. The canceled run is visible in server_sims_canceled_total.
func TestClientDisconnectCancelsSimulation(t *testing.T) {
	s := New(Config{MaxConcurrentSims: 1, SimTimeout: time.Minute})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// A horizon this long takes minutes to integrate; the client hangs up
	// after 100ms.
	body, err := json.Marshal(SimulateRequest{CRN: clockText(t), TEnd: 1e6, Fast: 300, Slow: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded; expected the client timeout to cut it off")
	}

	// The single semaphore slot must come free promptly: the cancellation
	// counter ticks and a short follow-up simulation gets through.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s.Registry().Snapshot()["server_sims_canceled_total"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled simulation never recorded; is the run still holding the slot?")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rec := do(t, s.Handler(), "POST", "/v1/simulate", SimulateRequest{
		CRN: "init X = 1\nX -> Y : slow", TEnd: 2,
	})
	if rec.Code != 200 {
		t.Fatalf("follow-up simulate blocked: status %d body %s", rec.Code, rec.Body.String())
	}
	if got := s.Registry().Snapshot()["server_sims_inflight"]; got != 0 {
		t.Fatalf("sims in flight after drain = %g, want 0", got)
	}
}

// TestCacheDisabled: a negative CacheSize turns both caches off.
func TestCacheDisabled(t *testing.T) {
	s := New(Config{CacheSize: -1})
	req := SimulateRequest{CRN: "init X = 1\nX -> Y : slow", TEnd: 2}
	do(t, s.Handler(), "POST", "/v1/simulate", req)
	if rec := do(t, s.Handler(), "POST", "/v1/simulate", req); rec.Header().Get("X-Cache") != "miss" {
		t.Fatal("disabled cache served a hit")
	}
}

// TestLRUEviction: the oldest entry falls out once the cache overflows.
func TestLRUEviction(t *testing.T) {
	s := New(Config{CacheSize: 2})
	reqs := make([]SimulateRequest, 3)
	for i := range reqs {
		reqs[i] = SimulateRequest{
			CRN: fmt.Sprintf("init X = 1\nX -> Y : slow %d", i+1), TEnd: 2,
		}
		do(t, s.Handler(), "POST", "/v1/simulate", reqs[i])
	}
	// reqs[0] was evicted by reqs[2]; reqs[1] and reqs[2] remain.
	if rec := do(t, s.Handler(), "POST", "/v1/simulate", reqs[0]); rec.Header().Get("X-Cache") != "miss" {
		t.Error("evicted entry served as hit")
	}
	if rec := do(t, s.Handler(), "POST", "/v1/simulate", reqs[2]); rec.Header().Get("X-Cache") != "hit" {
		t.Error("recent entry missed")
	}
}
