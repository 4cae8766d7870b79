package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// A run builds the server and sends the warm-up pass at least minSetups
// times and until the set-ups have taken setupBudget in all; setup_s is
// the median. A workload whose set-up takes a few milliseconds thus gets
// dozens of rounds, so that a stall of the host moves few of them.
const (
	minSetups   = 7
	setupBudget = 2 * time.Second
)

// untracedRun is the outcome of a timed phase.
type untracedRun struct {
	result
	w         *workload
	outs      []outcome
	tailQ     float64 // percentile reported as latency_tail_ms
	regDelta  map[string]float64
	hits      int
	setups    int
	keptMB    float64 // reply bytes kept for the check, in the spill file
	checkDur  time.Duration
	firstErr  string
	peakReset bool // rss_peak_mb covers the timed phase only
}

// cpuTime reads the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed heap to the system and resets the kernel's
// peak resident-set mark, so that peakRSSMB reads the peak of what runs
// next rather than of the set-up rounds. It reports whether the mark could
// be reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the peak resident set (VmHWM), falling back to the
// process-lifetime peak from getrusage.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok && len(strings.Fields(v)) > 0 {
				if kb, err := strconv.ParseFloat(strings.Fields(v)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runUntraced sets the server up repeatedly, then runs the timed
// closed loop on the last server for seconds, rounded up to whole decks,
// then checks every reply.
func runUntraced(w *workload, ds []design, seed int64, seconds int) (*untracedRun, error) {
	var (
		s      *server.Server
		c      *client
		setups []float64
		spent  time.Duration
	)
	for len(setups) < minSetups || spent < setupBudget {
		if s != nil {
			stop(s)
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, c, err = setup(w, ds); err != nil {
			return nil, err
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer stop(s)
	if err := c.openSpill(); err != nil {
		return nil, err
	}
	peakReset := resetPeakRSS()

	before := s.Registry().Snapshot()
	st := newStream(w, seed)
	cpu0, start := cpuTime(), time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	var outs []outcome
	// The phase ends with the first deck completed after the deadline, so
	// every run serves whole decks: the same class mix for every seed.
	for time.Now().Before(deadline) || !st.deckDone() {
		outs = append(outs, c.do(st.next()))
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0
	rss := peakRSSMB()
	run := &untracedRun{w: w, outs: outs, setups: len(setups), peakReset: peakReset,
		regDelta: delta(before, s.Registry().Snapshot())}

	checkStart := time.Now()
	refs := newReferences(ds)
	verify(c, outs, func(r request) (finals, error) { return refs.finals(r.Spec) })
	run.checkDur = time.Since(checkStart)
	run.keptMB = float64(c.off) / (1 << 20)
	if err := c.closeSpill(); err != nil {
		return nil, err
	}

	var lats []float64
	for _, o := range outs {
		if o.hit {
			run.hits++
		}
		if o.fail != "" {
			run.Failed++
			if run.firstErr == "" {
				run.firstErr = fmt.Sprintf("request %d (%s): %s", o.req.ID, o.req.Class, o.fail)
			}
			continue
		}
		lats = append(lats, ms(o.lat))
	}
	run.Attempted = len(outs)
	run.Correct = run.Failed == 0
	completed := float64(max(len(lats), 1))
	var tail float64
	tail, run.tailQ = tailLatency(lats)
	run.Metrics = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"latency_p50_ms":  {median(lats), "ms"},
		"latency_tail_ms": {tail, "ms"},
		"throughput_rps":  {float64(len(lats)) / wall.Seconds(), "1/s"},
		"cpu_ms_per_req":  {ms(cpu) / completed, "ms"},
		"rss_peak_mb":     {rss, "MB"},
	}
	return run, nil
}

// report prints the run's findings before the metric table.
func (r *untracedRun) report(out io.Writer) {
	fmt.Fprintf(out, "perfbench %s: %d requests, %d failed, output check %.1fs\n",
		r.w.name, r.Attempted, r.Failed, r.checkDur.Seconds())
	if r.firstErr != "" {
		fmt.Fprintf(out, "  first failure: %s\n", r.firstErr)
	}
	if !r.peakReset {
		fmt.Fprintln(out, "  rss_peak_mb is the process-lifetime peak: the peak mark could not be reset")
	}
	fmt.Fprintf(out, "  setup_s is the median of %d set-ups\n", r.setups)
	fmt.Fprintf(out, "  %.1f MB of reply bytes kept for the check, in a spill file outside the heap\n", r.keptMB)
	fmt.Fprintf(out, "  latency_tail_ms is p%.2f: the %d-th largest of %d latencies\n",
		100*r.tailQ, tailBeyond+1, r.Attempted-r.Failed)
	byClass := map[string][]float64{}
	for _, o := range r.outs {
		byClass[o.req.Class] = append(byClass[o.req.Class], ms(o.lat))
	}
	names := make([]string, 0, len(byClass))
	for n := range byClass {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(out, "  class latencies (count, p50, max ms):")
	for _, n := range names {
		l := byClass[n]
		fmt.Fprintf(out, "    %-16s %5d %9.3f %9.3f\n", n, len(l), median(l), quantile(l, 1))
	}
	fmt.Fprintln(out, "  registry cross-check (program's own counts over the timed phase):")
	fmt.Fprintf(out, "    response-cache hits: registry %g, X-Cache %d\n",
		r.regDelta[obs.Label("cache_hits_total", "cache", "response")], r.hits)
	fmt.Fprintf(out, "    ode_stiff_switches_total %g, kernel_ensemble_lane_steps_total %g\n",
		r.regDelta["ode_stiff_switches_total"], r.regDelta["kernel_ensemble_lane_steps_total"])
}

// delta subtracts two registry snapshots.
func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// tailBeyond is how many samples must lie beyond the tail percentile.
const tailBeyond = 10

// tailLatency returns the highest percentile with at least tailBeyond
// samples beyond it — the (tailBeyond+1)-th largest sample — and that
// percentile as a fraction. With too few samples it returns the maximum.
func tailLatency(xs []float64) (value, q float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 1 - tailBeyond
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], float64(i+1) / float64(len(s))
}

// quantile returns the q-quantile by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
