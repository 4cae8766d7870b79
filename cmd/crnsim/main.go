// Command crnsim simulates a chemical reaction network described in the
// repository's .crn text format, deterministically (mass-action ODE) or
// stochastically (Gillespie SSA), and prints CSV or an ASCII plot. The
// instrumentation flags stream machine-readable telemetry while the
// simulation runs: -events writes a JSONL event log (run lifecycle,
// Schmitt-triggered clock edges, dominant-phase changes), -metrics writes a
// Prometheus-style text exposition of the run's counters and histograms,
// -trace-json exports an OTLP-compatible JSON trace of the run (a root span
// parenting the sim span, annotated with clock edges, phase changes and any
// health alerts), and -progress prints coarse progress lines to stderr.
//
// The simulator is selected with -method (ode, ssa); Ctrl-C stops the run
// promptly with a partial-horizon error, and -timeout bounds the wall-clock
// time of the run the same way (non-zero exit when it expires).
//
// Usage:
//
//	crnsim [flags] network.crn
//
// Example:
//
//	crnsim -t 120 -plot R1,G1,B1 oscillator.crn
//	crnsim -method ssa -unit 100 -seed 7 -t 50 chain.crn > out.csv
//	crnsim -t 120 -events events.jsonl -metrics metrics.txt oscillator.crn
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

// options collects everything the run needs; flags map onto it 1:1.
type options struct {
	tEnd    float64
	fast    float64
	slow    float64
	method  string // simulator name for sim.ParseMethod
	solver  string // ODE integrator for sim.ParseSolver
	unit    float64
	seed    int64
	plot    string
	sample  float64
	events  string // JSONL event log path ("" = off)
	metrics string // Prometheus text exposition path
	traces  string // OTLP/JSON trace export path ("" = off)
	prog    bool   // progress lines on stderr
	timeout time.Duration
}

func main() {
	var o options
	flag.Float64Var(&o.tEnd, "t", 100, "simulation horizon (time units)")
	flag.Float64Var(&o.fast, "fast", 100, "fast-category rate constant")
	flag.Float64Var(&o.slow, "slow", 1, "slow-category rate constant")
	flag.StringVar(&o.method, "method", "", "simulator: ode or ssa (default ode)")
	flag.StringVar(&o.solver, "solver", "", "ODE integrator: auto, explicit, or stiff (default auto: explicit with stiffness handoff)")
	flag.Float64Var(&o.unit, "unit", 100, "stochastic: molecules per concentration unit")
	flag.Int64Var(&o.seed, "seed", 1, "stochastic: random seed")
	flag.StringVar(&o.plot, "plot", "", "comma-separated species to plot as ASCII (default: CSV of all species)")
	flag.Float64Var(&o.sample, "sample", 0, "recording interval (0 = horizon/1000)")
	flag.StringVar(&o.events, "events", "", "write a JSONL event log (sim lifecycle, clock edges, phase changes) to this file")
	flag.StringVar(&o.metrics, "metrics", "", "write Prometheus-style metrics exposition to this file")
	flag.StringVar(&o.traces, "trace-json", "", "write an OTLP/JSON trace of the run (root + sim spans with clock events) to this file")
	flag.BoolVar(&o.prog, "progress", false, "print progress lines to stderr while simulating")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort the simulation after this wall-clock duration (0 = none)")
	cons := flag.Bool("conserved", false, "print the network's conservation laws and exit")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: crnsim [flags] network.crn")
		flag.Usage()
		os.Exit(2)
	}
	if *cons {
		if err := printConserved(flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "crnsim:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, flag.Arg(0), o); err != nil {
		fmt.Fprintln(os.Stderr, "crnsim:", err)
		os.Exit(1)
	}
}

// printConserved prints one line per conservation law of the network.
func printConserved(path string) error {
	net, err := loadNetwork(path)
	if err != nil {
		return err
	}
	laws := net.ConservationLaws()
	if len(laws) == 0 {
		fmt.Println("no conservation laws (full-rank stoichiometry)")
		return nil
	}
	for _, l := range laws {
		fmt.Println(l)
	}
	return nil
}

// loadNetwork parses the .crn file and rejects networks with inert species:
// a declared species that no reaction touches can never change concentration
// and almost always indicates a typo in a reaction line.
func loadNetwork(path string) (*crn.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	net, err := crn.Parse(f)
	if err != nil {
		return nil, err
	}
	if unused := net.UnusedSpecies(); len(unused) > 0 {
		return nil, fmt.Errorf("%s: species declared but used by no reaction: %s (typo in a reaction line?)",
			path, strings.Join(unused, ", "))
	}
	return net, nil
}

func run(ctx context.Context, path string, o options) (err error) {
	method, err := sim.ParseMethod(o.method)
	if err != nil {
		return err
	}
	solver, err := sim.ParseSolver(o.solver)
	if err != nil {
		return err
	}
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
		defer func() {
			if err != nil && errors.Is(err, context.DeadlineExceeded) {
				err = fmt.Errorf("simulation exceeded -timeout %v: %w", o.timeout, err)
			}
		}()
	}
	net, err := loadNetwork(path)
	if err != nil {
		return err
	}
	rates := sim.Rates{Fast: o.fast, Slow: o.slow}

	// Assemble the instrumentation stack.
	var sinks []obs.Observer
	var jsonl *obs.JSONL
	var reg *obs.Registry
	if o.events != "" {
		f, err := os.Create(o.events)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		jsonl = obs.NewJSONL(f)
		sinks = append(sinks, jsonl)
	}
	if o.metrics != "" {
		reg = obs.NewRegistry()
		sinks = append(sinks, obs.NewRegistryObserver(reg))
	}
	var progress *obs.Progress
	if o.prog {
		progress = &obs.Progress{W: os.Stderr}
		sinks = append(sinks, progress)
	}
	observer := obs.Multi(sinks...)
	var watchers []obs.Watcher
	if observer != nil || o.traces != "" {
		watchers = sim.AutoWatchers(net)
	}
	if progress != nil {
		// Progress prints its milestones from the samples it watches.
		watchers = append(watchers, progress)
	}

	// Offline tracing: mint a root span covering the whole invocation and
	// put it in the context; sim.Run hangs its sim span (with clock edge /
	// phase change events) underneath.
	var tracer *span.Tracer
	var root *span.Span
	if o.traces != "" {
		tracer = span.NewTracer(0)
		root = tracer.Root("crnsim " + path)
		root.SetAttr("sim.file", path)
		ctx = span.NewContext(ctx, root)
	}

	tr, err := sim.Run(ctx, net, sim.Config{
		Method:      method,
		Solver:      solver,
		Rates:       rates,
		TEnd:        o.tEnd,
		Unit:        o.unit,
		Seed:        o.seed,
		SampleEvery: o.sample,
		Obs:         observer,
		Watchers:    watchers,
	})
	if root != nil {
		root.SetError(err)
		root.End()
		f, ferr := os.Create(o.traces)
		if ferr != nil {
			return ferr
		}
		spans := tracer.Store().Trace(root.TraceID())
		if werr := span.WriteOTLP(f, "crnsim", spans); werr != nil {
			f.Close()
			return werr
		}
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
	}
	if err != nil {
		return err
	}
	if jsonl != nil {
		if jerr := jsonl.Err(); jerr != nil {
			return fmt.Errorf("event log: %w", jerr)
		}
	}
	if reg != nil {
		f, err := os.Create(o.metrics)
		if err != nil {
			return err
		}
		if _, werr := reg.WriteTo(f); werr != nil {
			f.Close()
			return werr
		}
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
	}
	if o.plot != "" {
		names := strings.Split(o.plot, ",")
		plot, err := tr.ASCIIPlot(100, 16, names...)
		if err != nil {
			return err
		}
		fmt.Print(plot)
		for _, n := range names {
			fmt.Printf("final %s = %.4f\n", n, tr.Final(n))
		}
		return nil
	}
	return tr.WriteCSV(os.Stdout)
}
