// Package exper defines the reproduction experiments E1–E14: one runnable
// definition per table/figure of the evaluation (see DESIGN.md for the
// mapping back to the paper's artifacts). The same definitions back the
// cmd/molbench tool, the root-level Go benchmarks and EXPERIMENTS.md.
//
// Grid-shaped experiments (tag "grid") fan their parameter points across the
// internal/batch worker pool; their tables are bit-identical for any worker
// count because rows are collected in job order and stochastic seeds are
// functions of the grid point, never of scheduling.
package exper

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/batch"
	"repro/internal/obs"
)

// Config tunes experiment execution.
type Config struct {
	// Quick shrinks parameter grids and horizons so an experiment
	// finishes in a few seconds (used by the Go benchmarks and CI). The
	// full configuration reproduces the EXPERIMENTS.md numbers.
	Quick bool
	// Seed feeds the stochastic and jitter sweeps.
	Seed int64
	// Workers bounds the pool used by grid experiments; 0 selects
	// runtime.NumCPU(), 1 forces sequential execution. The rendered tables
	// are identical either way.
	Workers int
	// Lanes is the SoA block width for experiments that route their runs
	// through sim.RunMany; 0 selects the engine default. Tables are
	// identical for any width — a lane's trace depends on its seed alone.
	Lanes int
	// Metrics, when non-nil, receives the run-level metric families of
	// every simulation an experiment runs, sequential or pooled, through one
	// stateless obs.RegistryObserver, plus the batch pool's own metrics
	// (cmd/molbench -metrics and the server wire their registry here).
	Metrics *obs.Registry
}

// workers resolves Config.Workers with its NumCPU default.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// batchOpts is the batch configuration shared by every grid experiment.
func (c Config) batchOpts() batch.Options {
	return batch.Options{Workers: c.workers(), Metrics: c.Metrics}
}

// observer returns the observer every simulation of an experiment reports
// through: a RegistryObserver over Metrics, or nil. It keeps no per-run
// state, so concurrent grid jobs may share it.
func (c Config) observer() obs.Observer {
	if c.Metrics == nil {
		return nil
	}
	return obs.NewRegistryObserver(c.Metrics)
}

// Result is a rendered experiment outcome: a table plus optional text
// figures and notes.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Figure string
	Notes  []string
}

// Format renders the result as aligned text.
func (r *Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, cell := range cells {
				if i > 0 {
					sb.WriteString("  ")
				}
				fmt.Fprintf(&sb, "%-*s", widths[i], cell)
			}
			sb.WriteByte('\n')
		}
		writeRow(r.Header)
		for i, w := range widths {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(strings.Repeat("-", w))
		}
		sb.WriteByte('\n')
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	if r.Figure != "" {
		sb.WriteString("\n")
		sb.WriteString(r.Figure)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Tags classifying experiments for molbench-style filtering.
const (
	// TagGrid marks experiments that sweep a parameter grid and execute it
	// on the batch worker pool.
	TagGrid = "grid"
	// TagScalar marks single-configuration experiments that run one (or a
	// couple of) fixed simulations sequentially.
	TagScalar = "scalar"
	// TagStoch marks experiments whose tables depend on stochastic (SSA)
	// simulation and therefore on Config.Seed.
	TagStoch = "stoch"
)

// Experiment is one registered reproduction experiment. Run receives the
// context that bounds every simulation the experiment performs.
type Experiment struct {
	ID    string
	Title string
	Tags  []string
	Run   func(ctx context.Context, cfg Config) (*Result, error)
}

// HasTag reports whether the experiment carries the given tag.
func (e Experiment) HasTag(tag string) bool {
	for _, t := range e.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Descriptor is the inspectable identity of a registered experiment,
// decoupled from its runnable definition.
type Descriptor struct {
	ID    string
	Title string
	Tags  []string
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exper: duplicate experiment " + e.ID)
	}
	if len(e.Tags) == 0 {
		panic("exper: experiment " + e.ID + " registered without tags")
	}
	registry[e.ID] = e
}

// Registry returns descriptors for every registered experiment, ordered like
// All. It is what CLIs should present for -list style output.
func Registry() []Descriptor {
	all := All()
	out := make([]Descriptor, len(all))
	for i, e := range all {
		out[i] = Descriptor{ID: e.ID, Title: e.Title, Tags: append([]string(nil), e.Tags...)}
	}
	return out
}

// All returns the experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric-aware: E2 before E10.
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
