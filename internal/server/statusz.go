package server

import (
	"fmt"
	"html/template"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs/alert"
	"repro/internal/obs/proc"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
)

// DebugHandler returns the operator-only debug surface: net/http/pprof
// under /debug/pprof/, the human-readable /debug/statusz dashboard, the
// /debug/tracez span browser and a /metrics mirror. It is intentionally a
// separate handler from Handler() so crnserved can bind it to an opt-in
// loopback listener (-debug-addr) — profiles and runtime internals never
// ship on the public API listener.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/statusz", s.handleStatusz)
	mux.HandleFunc("GET /debug/tracez", s.handleTracez)
	mux.HandleFunc("GET /debug/tsdb", s.handleTSDBPage)
	mux.HandleFunc("GET /debug/query", s.handleTSDBQuery)
	mux.HandleFunc("GET /debug/flightz", s.handleFlightList)
	mux.HandleFunc("GET /debug/flightz/{id}", s.handleFlightGet)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// statuszData is the view model of the /debug/statusz page.
type statuszData struct {
	Now        time.Time
	Uptime     time.Duration
	GoVersion  string
	Gomaxprocs int
	Goroutines int
	Draining   bool

	Caches      []statuszCache
	Jobs        []JobStatus
	JobStates   map[string]int
	RuleAlerts  []alert.RuleStatus
	Capsules    []flightInfoLink
	Alerts      []statuszKV
	Attribution []statuszAttr
	Runtime     *statuszRuntime
	Recent      []span.TraceSummary
	Slowest     []span.TraceSummary
}

// flightInfoLink pairs a capsule listing entry with its fetch URL.
type flightInfoLink struct {
	ID    string
	Time  time.Time
	Rule  string
	State string
}

type statuszCache struct {
	Name    string
	Entries int
	Hits    float64
	Misses  float64
	HitRate string
}

type statuszKV struct {
	Key   string
	Value float64
}

type statuszAttr struct {
	Kind       string
	CPUSeconds float64
	Allocs     float64
	AllocBytes float64
}

type statuszRuntime struct {
	Last       proc.Sample
	HeapSpark  string
	GorSpark   string
	CPUSpark   string // CPU seconds consumed per sampling step
	PauseSpark string // per-step GC pause max
	Samples    int
	Interval   time.Duration
}

// handleStatusz renders the one-page operator dashboard: process health,
// cache effectiveness, live and recent jobs, clock-health alerts, runtime
// sparklines from the proc collector, resource attribution totals, and the
// most recent / slowest traces.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	last := s.proc.Sample() // refresh the runtime numbers before rendering; nil-safe
	s.db.Poll()             // fold them into the history the sparklines read
	snap := s.reg.Snapshot()

	d := statuszData{
		Now:        time.Now(),
		Uptime:     time.Since(s.start).Round(time.Second),
		GoVersion:  runtime.Version(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Goroutines: runtime.NumGoroutine(),
		Draining:   s.Draining(),
		JobStates:  map[string]int{},
	}
	for _, c := range []struct {
		name string
		lru  *lruCache
	}{{"network", s.netCache}, {"response", s.resCache}} {
		hits := snap[fmt.Sprintf(`cache_hits_total{cache=%q}`, c.name)]
		misses := snap[fmt.Sprintf(`cache_misses_total{cache=%q}`, c.name)]
		rate := "n/a"
		if hits+misses > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*hits/(hits+misses))
		}
		entries := 0
		if c.lru != nil {
			entries = c.lru.len()
		}
		d.Caches = append(d.Caches, statuszCache{
			Name: c.name, Entries: entries, Hits: hits, Misses: misses, HitRate: rate,
		})
	}

	jobs := s.jobs.list()
	for _, j := range jobs {
		d.JobStates[j.State]++
	}
	if len(jobs) > 10 {
		jobs = jobs[:10]
	}
	d.Jobs = jobs

	d.RuleAlerts = s.engine.Status()
	for _, info := range s.recorder.List() {
		d.Capsules = append(d.Capsules, flightInfoLink{
			ID: info.ID, Time: info.Time, Rule: info.Rule, State: info.State,
		})
	}
	if len(d.Capsules) > 10 {
		d.Capsules = d.Capsules[:10]
	}

	d.Alerts = snapshotFamily(snap, "clock_alerts_total{")
	for _, kind := range []string{"batch", "simulate"} {
		cpu := snap[fmt.Sprintf(`job_cpu_seconds{kind=%q}`, kind)]
		allocs := snap[fmt.Sprintf(`job_allocs_total{kind=%q}`, kind)]
		bytes := snap[fmt.Sprintf(`job_alloc_bytes_total{kind=%q}`, kind)]
		if cpu > 0 || allocs > 0 || bytes > 0 {
			d.Attribution = append(d.Attribution, statuszAttr{
				Kind: kind, CPUSeconds: cpu, Allocs: allocs, AllocBytes: bytes,
			})
		}
	}

	if s.proc != nil {
		heap := s.tsdbRange("proc_heap_bytes")
		rt := &statuszRuntime{
			Last:     last,
			Samples:  len(heap),
			Interval: s.db.Step(),
		}
		rt.HeapSpark = sparkline(pointValues(heap))
		rt.GorSpark = sparkline(pointValues(s.tsdbRange("proc_goroutines")))
		rt.CPUSpark = sparkline(pointDeltas(s.tsdbRange("proc_cpu_seconds_total")))
		rt.PauseSpark = sparkline(pointValues(s.tsdbRange(`proc_gc_pause_seconds{q="max"}`)))
		d.Runtime = rt
	}

	if store := s.tracer.Store(); store != nil {
		d.Recent = store.Summaries(10, false)
		d.Slowest = store.Summaries(5, true)
	}

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statuszTmpl.Execute(w, d); err != nil {
		// The page is already partially written; nothing to repair.
		return
	}
}

// snapshotFamily extracts the series of one labelled metric family from a
// registry snapshot, sorted by series name: prefix is the family name
// including the opening '{'.
func snapshotFamily(snap map[string]float64, prefix string) []statuszKV {
	var out []statuszKV
	for k, v := range snap {
		if strings.HasPrefix(k, prefix) {
			out = append(out, statuszKV{Key: strings.TrimSuffix(k[len(prefix):], "}"), Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// tsdbRange reads one series' whole retained history from the embedded
// store (empty when the store is disabled).
func (s *Server) tsdbRange(name string) []tsdb.Point {
	return s.db.Range(name, 0)
}

// pointValues projects a range query into spark-ready values, capped at
// the last sparkWidth points.
func pointValues(pts []tsdb.Point) []float64 {
	if len(pts) > sparkWidth {
		pts = pts[len(pts)-sparkWidth:]
	}
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Value
	}
	return out
}

// pointDeltas projects the per-step increments of a cumulative series.
func pointDeltas(pts []tsdb.Point) []float64 {
	if len(pts) < 2 {
		return nil
	}
	if len(pts) > sparkWidth+1 {
		pts = pts[len(pts)-sparkWidth-1:]
	}
	out := make([]float64, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		if d := pts[i].Value - pts[i-1].Value; d > 0 {
			out[i-1] = d
		}
	}
	return out
}

// sparkWidth caps sparkline length: one rune per sample.
const sparkWidth = 60

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders a series as unicode block characters scaled to the
// series' own min..max range (a flat series renders as a flat low line).
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sb strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		sb.WriteRune(sparkRunes[i])
	}
	return sb.String()
}

var statuszTmpl = template.Must(template.New("statusz").Funcs(template.FuncMap{
	"bytes": func(v float64) string {
		switch {
		case v >= 1<<30:
			return fmt.Sprintf("%.2f GiB", v/(1<<30))
		case v >= 1<<20:
			return fmt.Sprintf("%.2f MiB", v/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%.2f KiB", v/(1<<10))
		default:
			return fmt.Sprintf("%.0f B", v)
		}
	},
	"secs": func(v float64) string {
		switch {
		case v == 0:
			return "0"
		case v < 1e-3:
			return fmt.Sprintf("%.0fµs", v*1e6)
		case v < 1:
			return fmt.Sprintf("%.2fms", v*1e3)
		default:
			return fmt.Sprintf("%.3fs", v)
		}
	},
}).Parse(`<!DOCTYPE html>
<html><head><title>crnserved statusz</title>
<style>
body { font-family: monospace; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.4em; border-bottom: 1px solid #ccc; }
table { border-collapse: collapse; margin: .4em 0; }
td, th { padding: .15em .7em; text-align: left; border-bottom: 1px solid #eee; }
th { color: #555; font-weight: normal; }
.spark { font-size: 1.1em; letter-spacing: -1px; color: #2a6; }
.bad { color: #b00; } .ok { color: #2a6; }
.muted { color: #888; }
</style></head><body>
<h1>crnserved /debug/statusz</h1>

<h2>Health</h2>
<table>
<tr><th>state</th><td>{{if .Draining}}<span class="bad">draining</span>{{else}}<span class="ok">serving</span>{{end}}</td></tr>
<tr><th>uptime</th><td>{{.Uptime}}</td></tr>
<tr><th>go</th><td>{{.GoVersion}} · GOMAXPROCS {{.Gomaxprocs}}</td></tr>
<tr><th>goroutines</th><td>{{.Goroutines}}</td></tr>
<tr><th>rendered</th><td>{{.Now.Format "2006-01-02T15:04:05Z07:00"}}</td></tr>
</table>

<h2>Caches</h2>
<table>
<tr><th>cache</th><th>entries</th><th>hits</th><th>misses</th><th>hit rate</th></tr>
{{range .Caches}}<tr><td>{{.Name}}</td><td>{{.Entries}}</td><td>{{.Hits}}</td><td>{{.Misses}}</td><td>{{.HitRate}}</td></tr>
{{end}}</table>

<h2>Jobs</h2>
{{if .JobStates}}<p>{{range $state, $n := .JobStates}}{{$state}}: {{$n}} · {{end}}</p>{{else}}<p class="muted">no jobs yet</p>{{end}}
{{if .Jobs}}<table>
<tr><th>id</th><th>state</th><th>progress</th><th>created</th></tr>
{{range .Jobs}}<tr><td>{{.ID}}</td><td>{{.State}}</td><td>{{.Completed}}+{{.Failed}}/{{.Total}}</td><td>{{.Created.Format "15:04:05"}}</td></tr>
{{end}}</table>{{end}}

<h2>Alerts</h2>
{{if .RuleAlerts}}<table>
<tr><th>rule</th><th>severity</th><th>state</th><th>since</th><th>value</th><th>fires</th></tr>
{{range .RuleAlerts}}<tr><td>{{.Rule.Name}}</td><td>{{.Rule.Severity}}</td><td>{{if eq .State "firing"}}<span class="bad">{{.State}}</span>{{else if eq .State "pending"}}{{.State}}{{else}}<span class="ok">{{.State}}</span>{{end}}</td><td>{{.Since.Format "15:04:05"}}</td><td>{{if .HasValue}}{{printf "%.4g" .Value}}{{else}}<span class="muted">no data</span>{{end}}</td><td>{{.Fires}}</td></tr>
{{end}}</table>{{else}}<p class="muted">alert engine disabled</p>{{end}}
{{if .Capsules}}<p>flight capsules: {{range .Capsules}}<a href="/debug/flightz/{{.ID}}">{{.ID}}</a> ({{.Rule}}, {{.Time.Format "15:04:05"}}) {{end}}</p>{{end}}

<h2>Clock alerts</h2>
{{if .Alerts}}<table>
<tr><th>rule</th><th>count</th></tr>
{{range .Alerts}}<tr><td class="bad">{{.Key}}</td><td>{{.Value}}</td></tr>
{{end}}</table>{{else}}<p class="ok">none — the tri-phase invariants held</p>{{end}}

<h2>Resource attribution</h2>
{{if .Attribution}}<table>
<tr><th>kind</th><th>cpu</th><th>allocs</th><th>alloc bytes</th></tr>
{{range .Attribution}}<tr><td>{{.Kind}}</td><td>{{secs .CPUSeconds}}</td><td>{{.Allocs}}</td><td>{{bytes .AllocBytes}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no attributed work yet</p>{{end}}

<h2>Runtime</h2>
{{with .Runtime}}<table>
<tr><th>heap</th><td>{{bytes .Last.HeapBytes}}</td><td class="spark">{{.HeapSpark}}</td></tr>
<tr><th>goroutines</th><td>{{.Last.Goroutines}}</td><td class="spark">{{.GorSpark}}</td></tr>
<tr><th>cpu / interval</th><td>{{secs .Last.CPUSeconds}} total</td><td class="spark">{{.CPUSpark}}</td></tr>
<tr><th>gc pause max</th><td>{{secs .Last.GCPauseMax}}</td><td class="spark">{{.PauseSpark}}</td></tr>
<tr><th>gc cycles</th><td>{{.Last.GCCycles}}</td><td class="muted">{{.Samples}} samples @ {{.Interval}}</td></tr>
<tr><th>sched lat p99</th><td>{{secs .Last.SchedLatP99}}</td><td></td></tr>
</table>{{else}}<p class="muted">proc collector disabled</p>{{end}}

<h2>Recent traces</h2>
{{if .Recent}}<table>
<tr><th>trace</th><th>root</th><th>spans</th><th>duration</th><th>errors</th></tr>
{{range .Recent}}<tr><td><a href="/debug/tracez?trace={{.TraceID}}">{{.TraceID}}</a></td><td>{{.Root}}</td><td>{{.Spans}}</td><td>{{.Duration}}</td><td>{{if .Errors}}<span class="bad">{{.Errors}}</span>{{else}}0{{end}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no traces yet</p>{{end}}

<h2>Slowest traces</h2>
{{if .Slowest}}<table>
<tr><th>trace</th><th>root</th><th>spans</th><th>duration</th></tr>
{{range .Slowest}}<tr><td><a href="/debug/tracez?trace={{.TraceID}}">{{.TraceID}}</a></td><td>{{.Root}}</td><td>{{.Spans}}</td><td>{{.Duration}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no traces yet</p>{{end}}

<p class="muted">profiles: <a href="/debug/pprof/">/debug/pprof/</a> · metrics: <a href="/metrics">/metrics</a> · traces: <a href="/debug/tracez">/debug/tracez</a></p>
</body></html>
`))
