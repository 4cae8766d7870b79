// Command molbench runs the reproduction experiments E1–E14 (the paper's
// tables and figures; see DESIGN.md for the mapping) and prints their
// tables and text figures. EXPERIMENTS.md is generated from this tool's
// full-mode output.
//
// Grid experiments fan their sweep points across a worker pool
// (internal/batch); -parallel bounds the pool. Tables are bit-identical for
// any worker count. Ctrl-C cancels the running experiment promptly.
//
// Usage:
//
//	molbench              # run everything, full parameters
//	molbench -quick       # shrunken grids (seconds instead of minutes)
//	molbench -list        # print the experiment registry and exit
//	molbench -run E3,E6   # a subset by ID
//	molbench -run stoch   # a subset by tag (grid, scalar, stoch)
//	molbench -parallel 1  # force sequential execution
//	molbench -lanes 16 -run E8 -quick  # widen the SoA ensemble lane blocks
//	molbench -metrics m.txt -quick   # also collect simulator metrics
//	molbench -cpuprofile cpu.pprof -run E6 -quick
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/exper"
	"repro/internal/obs"
	"repro/internal/obs/proc"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "use shrunken parameter grids")
		list     = flag.Bool("list", false, "list the experiment registry and exit")
		run      = flag.String("run", "", "comma-separated experiment IDs or tags (default: all)")
		seed     = flag.Int64("seed", 1, "seed for stochastic and jitter sweeps")
		parallel = flag.Int("parallel", runtime.NumCPU(), "worker-pool size for grid experiments (1 = sequential)")
		lanes    = flag.Int("lanes", 0, "SoA ensemble lane width for multi-run experiments (0 = engine default)")
		metrics  = flag.String("metrics", "", "write Prometheus-style simulator metrics to this file ('-' = stdout summary only)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *list {
		printRegistry(os.Stdout)
		return
	}

	exps, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "molbench:", err)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "molbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "molbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := exper.Config{Quick: *quick, Seed: *seed, Workers: *parallel, Lanes: *lanes}
	var reg *obs.Registry
	if *metrics != "" {
		// Every run, grid job or sequential, reports into this registry as
		// it ends.
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}

	failed := false
	for _, e := range exps {
		var before map[string]float64
		if reg != nil {
			before = reg.Snapshot()
		}
		u0 := proc.ReadUsage()
		start := time.Now()
		res, err := e.Run(ctx, cfg)
		elapsed := time.Since(start)
		du := proc.ReadUsage().Sub(u0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "molbench: %s failed: %v\n", e.ID, err)
			failed = true
			if ctx.Err() != nil {
				break
			}
			continue
		}
		fmt.Print(res.Format())
		if reg != nil {
			after := reg.Snapshot()
			runs, steps, selects := countersDelta(before, after)
			line := fmt.Sprintf("(%s in %s: %.0f sims, %.0f steps, %.0f selects, cpu %.2fs, %s allocated",
				e.ID, elapsed.Round(time.Millisecond), runs, steps, selects, du.CPUSeconds, fmtBytes(du.AllocBytes))
			if sr := solverReport(before, after); sr != "" {
				line += ", " + sr
			}
			fmt.Print(line + ")\n\n")
		} else {
			fmt.Printf("(%s in %s, cpu %.2fs)\n\n", e.ID, elapsed.Round(time.Millisecond), du.CPUSeconds)
		}
	}

	if reg != nil {
		fmt.Fprint(os.Stderr, reg.Summary())
		if *metrics != "-" {
			f, err := os.Create(*metrics)
			if err != nil {
				fmt.Fprintln(os.Stderr, "molbench:", err)
				os.Exit(1)
			}
			if _, err := reg.WriteTo(f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "molbench:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "molbench:", err)
				os.Exit(1)
			}
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "molbench:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "molbench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "molbench:", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// selectExperiments resolves the -run expression: each comma-separated token
// is an experiment ID or a tag; the selection is the union, in registry
// order, without duplicates. An empty expression selects everything.
func selectExperiments(expr string) ([]exper.Experiment, error) {
	if expr == "" {
		return exper.All(), nil
	}
	picked := make(map[string]bool)
	for _, tok := range strings.Split(expr, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if e, ok := exper.ByID(tok); ok {
			picked[e.ID] = true
			continue
		}
		matched := false
		for _, e := range exper.All() {
			if e.HasTag(strings.ToLower(tok)) {
				picked[e.ID] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("unknown experiment or tag %q (try -list)", tok)
		}
	}
	var exps []exper.Experiment
	for _, e := range exper.All() {
		if picked[e.ID] {
			exps = append(exps, e)
		}
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("selection %q matched nothing (try -list)", expr)
	}
	return exps, nil
}

// printRegistry writes one line per registered experiment: ID, tags, title.
func printRegistry(w *os.File) {
	for _, d := range exper.Registry() {
		fmt.Fprintf(w, "%-4s [%s] %s\n", d.ID, strings.Join(d.Tags, ","), d.Title)
	}
}

// countersDelta sums the growth of the per-simulator run/step counters and
// the kernel selection counters between two registry snapshots, aggregating
// over their labels.
func countersDelta(before, after map[string]float64) (runs, steps, selects float64) {
	for k, v := range after {
		d := v - before[k]
		switch {
		case strings.HasPrefix(k, "sim_runs_total"):
			runs += d
		case strings.HasPrefix(k, "sim_steps_total"):
			steps += d
		case strings.HasPrefix(k, "kernel_selects_total"):
			selects += d
		}
	}
	return runs, steps, selects
}

// solverReport summarizes which ODE integrators an experiment's runs used,
// from the growth of the ode_solver_runs_total family between two registry
// snapshots: "solver explicit×3", "solver stiff×14", or — when auto runs
// handed off — "solver auto×5 switched×2@t=1.2" (the time being the last
// handoff's simulated time). Empty when the experiment ran no ODE sims.
func solverReport(before, after map[string]float64) string {
	var parts []string
	for _, s := range []string{"explicit", "stiff", "auto"} {
		k := obs.Label("ode_solver_runs_total", "solver", s)
		if d := after[k] - before[k]; d > 0 {
			parts = append(parts, fmt.Sprintf("%s×%.0f", s, d))
		}
	}
	if sw := after["ode_stiff_switches_total"] - before["ode_stiff_switches_total"]; sw > 0 {
		parts = append(parts, fmt.Sprintf("switched×%.0f@t=%.4g", sw, after["ode_stiff_switch_t"]))
	}
	if len(parts) == 0 {
		return ""
	}
	return "solver " + strings.Join(parts, " ")
}

// fmtBytes renders a byte volume in the nearest binary unit.
func fmtBytes(v float64) string {
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
}
