package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64, safe for concurrent use.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter by v (v < 0 is ignored: counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 || v != v {
		return
	}
	for {
		old := c.bits.Load()
		cur := math.Float64frombits(old)
		if c.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Inc increases the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 that may go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set assigns the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by v (which may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into cumulative buckets, Prometheus
// style. Safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds; +Inf implied
	counts []uint64  // len(bounds)+1, last bucket is +Inf
	sum    float64
	n      uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// snapshot returns cumulative bucket counts aligned with bounds plus +Inf.
func (h *Histogram) snapshot() (bounds []float64, cum []uint64, sum float64, n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	acc := uint64(0)
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return h.bounds, cum, h.sum, h.n
}

// Registry is a concurrency-safe collection of named metrics. Metric names
// follow the Prometheus convention and may carry labels rendered inline,
// e.g. `sim_runs_total{sim="ode"}` (see Label). All methods
// are safe for concurrent use; the metric handles they return are cheap to
// cache and themselves safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	order    []metricKey // registration order, for stable-but-grouped output
}

type metricKey struct {
	name string
	kind byte // 'c', 'g', 'h'
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Label renders a metric name with label pairs in Prometheus text syntax:
// Label("x_total", "sim", "ode") == `x_total{sim="ode"}`. kv must alternate
// keys and values; values are escaped per the exposition format (backslash,
// double quote and newline). An odd trailing key gets an empty value rather
// than being dropped.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteString(`="`)
		if i+1 < len(kv) {
			sb.WriteString(escapeLabel(kv[i+1]))
		}
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

// labelEscaper implements the text exposition format's label-value escaping
// (version 0.0.4: `\` -> `\\`, `"` -> `\"`, newline -> `\n`). Package-level
// so Label does not rebuild the replacer — and its internal trie — per call.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string {
	return labelEscaper.Replace(v)
}

// sanitizeName guards metric names registered directly (bypassing Label)
// against raw line breaks, which would split a sample line and corrupt the
// whole exposition: inside a quoted label value a newline becomes the `\n`
// escape, anywhere else line-break characters become '_'. Names built with
// Label are already clean and pass through untouched (no allocation).
func sanitizeName(name string) string {
	if !strings.ContainsAny(name, "\n\r") {
		return name
	}
	var sb strings.Builder
	sb.Grow(len(name) + 4)
	inQuotes, escaped := false, false
	for _, r := range name {
		switch {
		case escaped:
			escaped = false
			sb.WriteRune(r)
		case inQuotes && r == '\\':
			escaped = true
			sb.WriteRune(r)
		case r == '"':
			inQuotes = !inQuotes
			sb.WriteRune(r)
		case r == '\n':
			if inQuotes {
				sb.WriteString(`\n`)
			} else {
				sb.WriteByte('_')
			}
		case r == '\r':
			sb.WriteByte('_')
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// Counter returns the named counter, creating it on first use. Raw line
// breaks in name are sanitized (see sanitizeName) so a hostile or buggy
// name cannot corrupt the exposition.
func (r *Registry) Counter(name string) *Counter {
	name = sanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.order = append(r.order, metricKey{name, 'c'})
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Names are
// sanitized like Counter's.
func (r *Registry) Gauge(name string) *Gauge {
	name = sanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.order = append(r.order, metricKey{name, 'g'})
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls ignore bounds). Names are
// sanitized like Counter's.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	name = sanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
		r.order = append(r.order, metricKey{name, 'h'})
	}
	return h
}

// baseName strips an inline label block: `a_total{x="y"}` -> `a_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// suffixed inserts a name suffix before any inline label block:
// suffixed(`h{a="b"}`, "_bucket") -> `h_bucket{a="b"}`.
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// withLabel appends an extra label pair to a possibly-labelled name:
// withLabel(`h{a="b"}`, `le`, `0.5`) -> `h{a="b",le="0.5"}`.
func withLabel(name, key, val string) string {
	esc := key + `="` + escapeLabel(val) + `"`
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + esc + "}"
	}
	return name + "{" + esc + "}"
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// sortKeys orders metrics in place, grouped by base name (so the # TYPE
// header precedes every series of that family) and alphabetically within the
// family.
func sortKeys(keys []metricKey) {
	sort.SliceStable(keys, func(i, j int) bool {
		bi, bj := baseName(keys[i].name), baseName(keys[j].name)
		if bi != bj {
			return bi < bj
		}
		return keys[i].name < keys[j].name
	})
}

// copyRefs snapshots the registration order and the metric pointers under the
// lock, so callers can read values without racing concurrent registrations.
// The metric structs themselves are safe to read concurrently.
func (r *Registry) copyRefs() ([]metricKey, map[string]*Counter, map[string]*Gauge, map[string]*Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := append([]metricKey(nil), r.order...)
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	return keys, counters, gauges, hists
}

// WriteTo renders the registry in the Prometheus text exposition format
// (version 0.0.4): `# TYPE` headers followed by `name value` sample lines,
// histograms expanded into cumulative `_bucket{le=...}`, `_sum` and `_count`
// series.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	keys, counters, gauges, hists := r.copyRefs()
	sortKeys(keys)

	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	lastTyped := ""
	header := func(name, kind string) error {
		base := baseName(name)
		if base == lastTyped {
			return nil
		}
		lastTyped = base
		return emit("# TYPE %s %s\n", base, kind)
	}
	for _, k := range keys {
		switch k.kind {
		case 'c':
			if err := header(k.name, "counter"); err != nil {
				return total, err
			}
			if err := emit("%s %s\n", k.name, formatValue(counters[k.name].Value())); err != nil {
				return total, err
			}
		case 'g':
			if err := header(k.name, "gauge"); err != nil {
				return total, err
			}
			if err := emit("%s %s\n", k.name, formatValue(gauges[k.name].Value())); err != nil {
				return total, err
			}
		case 'h':
			if err := header(k.name, "histogram"); err != nil {
				return total, err
			}
			bounds, cum, sum, n := hists[k.name].snapshot()
			bucket := suffixed(k.name, "_bucket")
			for i, b := range bounds {
				if err := emit("%s %d\n", withLabel(bucket, "le", formatValue(b)), cum[i]); err != nil {
					return total, err
				}
			}
			if err := emit("%s %d\n", withLabel(bucket, "le", "+Inf"), cum[len(cum)-1]); err != nil {
				return total, err
			}
			if err := emit("%s %s\n", suffixed(k.name, "_sum"), formatValue(sum)); err != nil {
				return total, err
			}
			if err := emit("%s %d\n", suffixed(k.name, "_count"), n); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// Snapshot returns every scalar metric by full name: counters and gauges at
// their current value, histograms as name_count / name_sum / name_mean.
func (r *Registry) Snapshot() map[string]float64 {
	keys, counters, gauges, hists := r.copyRefs()

	out := make(map[string]float64, len(keys))
	for _, k := range keys {
		switch k.kind {
		case 'c':
			out[k.name] = counters[k.name].Value()
		case 'g':
			out[k.name] = gauges[k.name].Value()
		case 'h':
			h := hists[k.name]
			out[k.name+"_count"] = float64(h.Count())
			out[k.name+"_sum"] = h.Sum()
			out[k.name+"_mean"] = h.Mean()
		}
	}
	return out
}

// Summary renders a short human-readable account of the registry, one metric
// per line, histograms as count/mean.
func (r *Registry) Summary() string {
	keys, counters, gauges, hists := r.copyRefs()
	sortKeys(keys)

	var sb strings.Builder
	for _, k := range keys {
		switch k.kind {
		case 'c':
			fmt.Fprintf(&sb, "%-50s %s\n", k.name, formatValue(counters[k.name].Value()))
		case 'g':
			fmt.Fprintf(&sb, "%-50s %s\n", k.name, formatValue(gauges[k.name].Value()))
		case 'h':
			h := hists[k.name]
			fmt.Fprintf(&sb, "%-50s n=%d mean=%.4g\n", k.name, h.Count(), h.Mean())
		}
	}
	return sb.String()
}

// RegistryObserver adapts a Registry into an Observer: it translates the
// simulators' run-level and semantic events into the standard metric
// families
//
//	sim_runs_total{sim=}            runs started
//	sim_steps_total{sim=}           accepted steps / firings
//	sim_errors_total{sim=}          failed runs
//	sim_wall_seconds{sim=}          wall-clock duration of the last run
//	ode_steps_rejected_total        error-control rejections
//	ode_solver_runs_total{solver=}  ODE runs per requested solver
//	ode_stiff_switches_total        auto runs that handed off to stiff
//	ode_stiff_switch_t              simulated time of the last handoff
//	ode_stiff_steps_total           accepted Rosenbrock (stiff) steps
//	ode_stiff_jacobians_total       analytic Jacobian refills
//	ode_stiff_factorizations_total  LU factorizations of the shifted matrix
//	ode_stiff_solves_total          triangular backsolves
//	clock_edges_total{dir=}         Schmitt-trigger edge counts
//	phase_changes_total             dominant-phase transitions
//	clock_alerts_total{rule=}       clock-health alerts
//
// and, for stochastic runs, the kernel hot-path counter families
//
//	kernel_selects_total{mode=}        SSA selections, mode=fenwick|linear
//	kernel_exact_recomputes_total      full propensity rebuilds
//	kernel_ssa_loops_total{loop=}      loop entries, loop=tight|full
//	kernel_ensemble_blocks_total       SoA ensemble blocks executed
//	kernel_ensemble_passes_total       macro passes over ensemble lanes
//	kernel_ensemble_lane_steps_total   ensemble lane advances executed
//	kernel_ensemble_lane_slots_total   ensemble lane slots available
//
// Every count comes from SimEnd or a semantic event and every label value
// is drawn from a fixed set, so the series count does not grow with the
// networks a server sees; per-species detail stays on span events, the SSE
// stream and the JSONL log. It keeps no per-run state, so one observer may
// serve concurrent simulations.
type RegistryObserver struct {
	R *Registry
}

// NewRegistryObserver returns an observer recording into r.
func NewRegistryObserver(r *Registry) *RegistryObserver {
	return &RegistryObserver{R: r}
}

// OnSimStart counts the run.
func (o *RegistryObserver) OnSimStart(e SimStart) {
	o.R.Counter(Label("sim_runs_total", "sim", e.Sim)).Inc()
}

// OnClockEdge accounts threshold crossings per direction.
func (o *RegistryObserver) OnClockEdge(e ClockEdge) {
	dir := "fall"
	if e.Rising {
		dir = "rise"
	}
	o.R.Counter(Label("clock_edges_total", "dir", dir)).Inc()
}

// OnPhaseChange accounts dominant-phase transitions.
func (o *RegistryObserver) OnPhaseChange(PhaseChange) {
	o.R.Counter("phase_changes_total").Inc()
}

// OnAlert accounts analyzer alerts per rule.
func (o *RegistryObserver) OnAlert(e Alert) {
	o.R.Counter(Label("clock_alerts_total", "rule", e.Rule)).Inc()
}

// OnSimEnd records run totals, wall-clock duration and the kernel hot-path
// counters (zero counters register no series, keeping ODE output clean).
func (o *RegistryObserver) OnSimEnd(e SimEnd) {
	o.R.Counter(Label("sim_steps_total", "sim", e.Sim)).Add(float64(e.Steps))
	o.R.Gauge(Label("sim_wall_seconds", "sim", e.Sim)).Set(e.WallSeconds)
	if e.Err != "" {
		o.R.Counter(Label("sim_errors_total", "sim", e.Sim)).Inc()
	}
	if k := e.Kernel; !k.IsZero() {
		if k.FenwickSelects > 0 {
			o.R.Counter(Label("kernel_selects_total", "mode", "fenwick")).Add(float64(k.FenwickSelects))
		}
		if k.LinearSelects > 0 {
			o.R.Counter(Label("kernel_selects_total", "mode", "linear")).Add(float64(k.LinearSelects))
		}
		if k.ExactRecomputes > 0 {
			o.R.Counter("kernel_exact_recomputes_total").Add(float64(k.ExactRecomputes))
		}
		if k.TightLoops > 0 {
			o.R.Counter(Label("kernel_ssa_loops_total", "loop", "tight")).Add(float64(k.TightLoops))
		}
		if k.FullLoops > 0 {
			o.R.Counter(Label("kernel_ssa_loops_total", "loop", "full")).Add(float64(k.FullLoops))
		}
		if k.EnsembleBlocks > 0 {
			o.R.Counter("kernel_ensemble_blocks_total").Add(float64(k.EnsembleBlocks))
			o.R.Counter("kernel_ensemble_passes_total").Add(float64(k.EnsemblePasses))
			o.R.Counter("kernel_ensemble_lane_steps_total").Add(float64(k.LaneSteps))
			o.R.Counter("kernel_ensemble_lane_slots_total").Add(float64(k.LaneSlots))
		}
	}
	if od := e.ODE; !od.IsZero() {
		o.R.Counter(Label("ode_solver_runs_total", "solver", od.Solver)).Inc()
		o.R.Counter("ode_steps_rejected_total").Add(float64(od.Rejected))
		if od.Switched {
			o.R.Counter("ode_stiff_switches_total").Inc()
			o.R.Gauge("ode_stiff_switch_t").Set(od.SwitchT)
		}
		if od.StiffSteps > 0 {
			o.R.Counter("ode_stiff_steps_total").Add(float64(od.StiffSteps))
		}
		if od.JacEvals > 0 {
			o.R.Counter("ode_stiff_jacobians_total").Add(float64(od.JacEvals))
		}
		if od.Factorizations > 0 {
			o.R.Counter("ode_stiff_factorizations_total").Add(float64(od.Factorizations))
		}
		if od.Solves > 0 {
			o.R.Counter("ode_stiff_solves_total").Add(float64(od.Solves))
		}
	}
}
