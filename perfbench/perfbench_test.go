package main

import (
	"slices"
	"testing"
)

// TestTracedRunsRepeat pins the benchmark's determinism: two traced runs of
// one seed send identical request bytes, get identical reply bytes and
// count identical work, and another seed sends different bodies.
func TestTracedRunsRepeat(t *testing.T) {
	spillDir = t.TempDir()
	ds, err := buildDesigns()
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads(ds)
	for name, n := range map[string]int{"ode-traj": 12, "stiff-auto": 5, "ssa-serve": 12, "sweep-jobs": 8} {
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) *tracedRun {
				tr, err := runTraced(ws[name], ds, seed, n)
				if err != nil {
					t.Fatal(err)
				}
				if tr.Failed != 0 {
					t.Fatalf("seed %d: %d failed operations: %v", seed, tr.Failed, tr.lines)
				}
				return tr
			}
			a, b, other := run(7), run(7), run(8)
			if !slices.Equal(a.reqCRC, b.reqCRC) {
				t.Error("one seed sent different request bytes")
			}
			if !slices.Equal(a.respCRC, b.respCRC) {
				t.Error("one seed got different reply bytes")
			}
			work := 0.0
			for k, v := range a.counters {
				if b.counters[k] != v {
					t.Errorf("%s: %g then %g", k, v, b.counters[k])
				}
				work += v
			}
			if work == 0 {
				t.Error("no work counted")
			}
			if slices.Equal(a.reqCRC, other.reqCRC) {
				t.Error("another seed sent the same request bytes")
			}
		})
	}
}
