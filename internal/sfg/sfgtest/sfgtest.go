// Package sfgtest draws random signal-flow graphs for property tests: run
// through synth, they give randomized networks of the paper's own circuit
// class rather than hand-rolled ones.
package sfgtest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sfg"
)

// Random draws a random feed-forward signal-flow graph: an input feeding a
// chain of delays, rational gains and adders, closed by an output. The
// gain denominators are chosen so synthesis emits the whole molecularity
// range — bimolecular halvings for powers of two, a general (≥3-molecular)
// stage for odd q.
func Random(tb testing.TB, rng *rand.Rand) *sfg.Graph {
	tb.Helper()
	g := sfg.New()
	if err := g.Input("x"); err != nil {
		tb.Fatal(err)
	}
	nodes := []string{"x"}
	pick := func() string { return nodes[rng.Intn(len(nodes))] }
	stages := 3 + rng.Intn(4)
	for i := 0; i < stages; i++ {
		name := fmt.Sprintf("n%d", i)
		var err error
		switch rng.Intn(3) {
		case 0:
			err = g.Delay(name, pick(), rng.Float64())
		case 1:
			q := []int{1, 2, 3, 4}[rng.Intn(4)]
			err = g.Gain(name, pick(), 1+rng.Intn(3), q)
		default:
			err = g.Add(name, pick(), pick())
		}
		if err != nil {
			tb.Fatal(err)
		}
		nodes = append(nodes, name)
	}
	if err := g.Output("y", nodes[len(nodes)-1]); err != nil {
		tb.Fatal(err)
	}
	return g
}
