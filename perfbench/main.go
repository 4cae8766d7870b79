// Command perfbench is the repository's serving benchmark. It builds the
// paper's designs with the public constructors, renders them to .crn text,
// deals a seeded request stream, and drives crnserved's handler
// (server.New with the daemon's default configuration) in process: one
// closed-loop client, each request timed from request bytes in to response
// bytes out, no socket and no second process.
//
//	perfbench --workload sweep-jobs --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it measures the end-to-end metrics for --seconds, rounded
// up to whole decks of the stream, and checks every reply against a direct
// sim.Run / sim.RunMany call. With
// --trace 1 it serves a fixed-length prefix of the same stream, replays it
// layer by layer under spans, and reports the per-layer metrics. The last
// line of standard output is the JSON result; the lines before it are the
// human-readable report. NOTES.md records why each workload exists and what
// each layer metric predicts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ode-traj, stiff-auto, ssa-serve or sweep-jobs")
	seed := flag.Int64("seed", 1, "seed of the request stream")
	seconds := flag.Int("seconds", 40, "length of the timed phase, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the timed phase")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	ds, err := buildDesigns()
	if err != nil {
		fail(err)
	}
	w, ok := workloads(ds)[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	var res result
	if *traced != 0 {
		tr, err := runTraced(w, ds, *seed, w.traceN)
		if err != nil {
			fail(err)
		}
		if err := tr.writeSpans(*spans, w.name, *seed); err != nil {
			fail(err)
		}
		tr.report(os.Stdout)
		res = tr.result
	} else {
		un, err := runUntraced(w, ds, *seed, *seconds)
		if err != nil {
			fail(err)
		}
		un.report(os.Stdout)
		res = un.result
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// printMetrics lists every metric with its unit, sorted by name.
func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
