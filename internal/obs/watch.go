package obs

import "fmt"

// Watcher derives semantic events (clock edges, phase changes, health
// alerts) from raw state samples. The simulators drive watchers at every accepted
// step (ODE) or recording sample (SSA):
//
//	Bind(species)          once, to resolve names to state indices
//	Observe(t, y, sink)    per sample, in increasing-time order
//	Finish(t, sink)        once, after the final sample
//
// Implementations keep per-run state and must not be shared by concurrent
// simulations.
type Watcher interface {
	Bind(species []string) error
	Observe(t float64, y []float64, sink Observer)
	Finish(t float64, sink Observer)
}

func resolve(species []string, want []string) ([]int, error) {
	index := make(map[string]int, len(species))
	for i, s := range species {
		index[s] = i
	}
	idx := make([]int, len(want))
	for i, w := range want {
		j, ok := index[w]
		if !ok {
			return nil, fmt.Errorf("obs: watcher references unknown species %q", w)
		}
		idx[i] = j
	}
	return idx, nil
}

// EdgeWatcher emits ClockEdge events when watched species cross a
// Schmitt-triggered threshold pair: a rising edge when a species reaches
// High from below Low, a falling edge when it drops back below Low. This is
// the paper's reading of the molecular clock — a phase species above half
// the heartbeat amount is that phase's logical 1.
type EdgeWatcher struct {
	Species []string // watched species; empty means every bound species
	High    float64  // rising threshold
	Low     float64  // falling / re-arm threshold, must be < High

	names []string
	idx   []int
	high  []bool
	init  bool
}

// Bind resolves the watched species against the simulation's species table.
func (w *EdgeWatcher) Bind(species []string) error {
	if w.Low >= w.High {
		return fmt.Errorf("obs: edge watcher: Low (%g) must be < High (%g)", w.Low, w.High)
	}
	if len(w.Species) == 0 {
		w.names = append([]string(nil), species...)
	} else {
		w.names = append([]string(nil), w.Species...)
	}
	idx, err := resolve(species, w.names)
	if err != nil {
		return err
	}
	w.idx = idx
	w.high = make([]bool, len(idx))
	w.init = false
	return nil
}

// Observe updates the trigger state machines, emitting edges into sink.
func (w *EdgeWatcher) Observe(t float64, y []float64, sink Observer) {
	if !w.init {
		// The first sample sets the initial state without emitting edges.
		for i, j := range w.idx {
			w.high[i] = y[j] >= w.High
		}
		w.init = true
		return
	}
	for i, j := range w.idx {
		v := y[j]
		switch {
		case !w.high[i] && v >= w.High:
			w.high[i] = true
			sink.OnClockEdge(ClockEdge{T: t, Species: w.names[i], Rising: true, Level: w.High})
		case w.high[i] && v < w.Low:
			w.high[i] = false
			sink.OnClockEdge(ClockEdge{T: t, Species: w.names[i], Rising: false, Level: w.Low})
		}
	}
}

// Finish is a no-op for edge watching.
func (w *EdgeWatcher) Finish(t float64, sink Observer) {}

// PhaseGroup names a set of species whose total concentration represents
// one phase of a PhaseWatcher.
type PhaseGroup struct {
	Name    string
	Species []string
}

// PhaseWatcher emits a PhaseChange event whenever the group holding the
// largest total concentration changes (and that maximum exceeds Eps). With
// one group per colour class this tracks the tri-phase heartbeat; with one
// group per species it tracks which species currently dominates.
type PhaseWatcher struct {
	Groups []PhaseGroup
	Eps    float64 // minimum dominant mass to count; default 0 (any positive)

	idx [][]int
	cur int
}

// Bind resolves every group against the simulation's species table.
func (w *PhaseWatcher) Bind(species []string) error {
	if len(w.Groups) < 2 {
		return fmt.Errorf("obs: phase watcher needs at least 2 groups, got %d", len(w.Groups))
	}
	w.idx = make([][]int, len(w.Groups))
	for i, g := range w.Groups {
		idx, err := resolve(species, g.Species)
		if err != nil {
			return fmt.Errorf("group %q: %w", g.Name, err)
		}
		w.idx[i] = idx
	}
	w.cur = -1
	return nil
}

// Observe re-evaluates the dominant group, emitting a PhaseChange on change.
// The first determination of a run emits with From set to "".
func (w *PhaseWatcher) Observe(t float64, y []float64, sink Observer) {
	best, bestMass := -1, w.Eps
	for i, idx := range w.idx {
		mass := 0.0
		for _, j := range idx {
			mass += y[j]
		}
		if mass > bestMass {
			best, bestMass = i, mass
		}
	}
	if best < 0 || best == w.cur {
		return
	}
	from := ""
	if w.cur >= 0 {
		from = w.Groups[w.cur].Name
	}
	w.cur = best
	sink.OnPhaseChange(PhaseChange{T: t, From: from, To: w.Groups[best].Name})
}

// Finish is a no-op for phase watching.
func (w *PhaseWatcher) Finish(t float64, sink Observer) {}

// BindAll binds every watcher against the species table, failing fast.
func BindAll(watchers []Watcher, species []string) error {
	for _, w := range watchers {
		if err := w.Bind(species); err != nil {
			return err
		}
	}
	return nil
}

// ObserveAll drives every watcher for one sample.
func ObserveAll(watchers []Watcher, t float64, y []float64, sink Observer) {
	for _, w := range watchers {
		w.Observe(t, y, sink)
	}
}

// FinishAll flushes every watcher.
func FinishAll(watchers []Watcher, t float64, sink Observer) {
	for _, w := range watchers {
		w.Finish(t, sink)
	}
}
