package kernel

// Stats counts kernel hot-path decisions during one simulation run: which
// selector the SSA used and how often, how many exact propensity recomputes
// the drift guard and event injections forced, which SSA pass ran, and how
// full the ensemble blocks' lanes were. The fields are plain uint64s
// incremented by a single owner goroutine — a field increment is the entire
// hot-path cost, so counting stays 0-alloc and branch-free (asserted by
// TestSSAFiringAllocs).
//
// A run's Stats are deterministic for a given seed: both SSA selectors
// share every piece of floating-point bookkeeping, so a Fenwick run and a
// linear run of the same seed perform the same number of selections and
// recomputes (pinned by TestKernelStatsSelectorInvariant).
type Stats struct {
	FenwickSelects  uint64 // SSA firings selected via the O(log R) Fenwick descent
	LinearSelects   uint64 // SSA firings selected via the O(R) accumulation scan
	ExactRecomputes uint64 // full propensity rebuilds (drift guard, events, resyncs)
	TightLoops      uint64 // single SSA runs without hooks (the tight loop)
	FullLoops       uint64 // single SSA runs with hooks: events or watchers

	// Ensemble lane-occupancy counters, incremented by the SoA lane engine
	// (internal/sim/ensemble). A block runs its lanes in round-robin macro
	// passes; lanes retire independently as they reach their horizon, so
	// late passes run below full width. LaneSteps/LaneSlots is the mean
	// occupancy — how much of the block's width did useful work.
	EnsembleBlocks uint64 // SoA blocks executed
	EnsemblePasses uint64 // macro passes over a block's lanes
	LaneSteps      uint64 // lane advances executed (active lanes summed over passes)
	LaneSlots      uint64 // lane slots available (block width summed over passes)
}

// IsZero reports whether no counter has fired (e.g. an ODE run).
func (s Stats) IsZero() bool { return s == Stats{} }

// Add accumulates o into s, for aggregating per-run stats across a sweep.
func (s *Stats) Add(o Stats) {
	s.FenwickSelects += o.FenwickSelects
	s.LinearSelects += o.LinearSelects
	s.ExactRecomputes += o.ExactRecomputes
	s.TightLoops += o.TightLoops
	s.FullLoops += o.FullLoops
	s.EnsembleBlocks += o.EnsembleBlocks
	s.EnsemblePasses += o.EnsemblePasses
	s.LaneSteps += o.LaneSteps
	s.LaneSlots += o.LaneSlots
}

// Occupancy returns the mean fraction of ensemble lane slots that did
// useful work (0 when no ensemble block ran). 1.0 means every lane of
// every pass was still live; ragged retirement pulls it below 1.
func (s Stats) Occupancy() float64 {
	if s.LaneSlots == 0 {
		return 0
	}
	return float64(s.LaneSteps) / float64(s.LaneSlots)
}

// Selects returns the total number of reaction selections, i.e. SSA
// firings, regardless of selector.
func (s Stats) Selects() uint64 { return s.FenwickSelects + s.LinearSelects }
