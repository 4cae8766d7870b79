// Package kernel holds the compiled, allocation-free evaluation substrate
// shared by both simulation backends (ODE derivative and exact SSA). A
// crn.Network is an object graph built for construction convenience;
// NewStructure flattens it once into CSR-style index arrays so the per-step
// inner loops touch only dense slices — no maps, no nested slice headers, no
// math.Pow — and every backend evaluates the *same* kernel, so rate laws
// cannot drift apart between methods.
//
// Compilation is split in two phases so multi-run workloads pay the
// expensive part once. NewStructure builds the rate-independent Structure
// (stoichiometry, rate-law forms, dependency graph, update program) — the
// O(species+terms) walk over the network. Bind attaches a concrete
// rate-constant vector to a Structure, which is all that distinguishes the
// points of a rate-ratio sweep; it is O(reactions) and shares every
// structural array, so a 100-point sweep walks the dependency graph once
// instead of 100 times.
//
// The package also provides the Fenwick-tree propensity index (see tree.go)
// that turns Gillespie reaction selection from an O(R) scan into an
// O(log R) descent, and the SplitMix64 RNG (see rng.go) whose per-lane
// streams make the ensemble engine's traces bit-identical at every block
// width.
package kernel

import (
	"sync"

	"repro/internal/crn"
)

// Structure is the rate-independent compiled view of a reaction network.
// All per-reaction variable-length data (reactant terms, net stoichiometry
// deltas, dependency edges, update records) is stored in CSR form: row i of
// array X spans X[XStart[i]:XStart[i+1]].
//
// A Structure is immutable after NewStructure and safe for concurrent use;
// any number of Compiled bindings may share one Structure.
type Structure struct {
	NumSpecies   int
	NumReactions int

	// Order is the total molecularity (sum of reactant coefficients).
	Order []int32

	// Reactant terms: species index and stoichiometric coefficient.
	ReactStart []int32
	ReactSpec  []int32
	ReactCoeff []int32

	// Form classifies each reaction's rate law so the propensity and rate
	// kernels evaluate the overwhelmingly common shapes (the paper's
	// constructs are ≤ bimolecular) with straight-line code — no inner
	// term loop, no coefficient switch. Op1/Op2 are the operand species of
	// the specialized forms (unused entries are -1).
	Form []int8
	Op1  []int32
	Op2  []int32

	// Net stoichiometry change per firing: species index and signed delta.
	DeltaStart []int32
	DeltaSpec  []int32
	DeltaVal   []float64

	// Dependency graph: DepList rows hold, for each reaction, the reactions
	// whose propensity may change after it fires (the readers of any
	// species it changes).
	DepStart []int32
	DepList  []int32

	// Upd is the flattened update program: one record per dependency edge,
	// aligned 1:1 with DepList (row i spans Upd[DepStart[i]:DepStart[i+1]]).
	// Each record packs everything the post-firing propensity refresh needs
	// — dependent index, rate-law form, operand species — into 16
	// contiguous bytes, so the SSA's dominant inner loop streams one dense
	// array instead of gathering from four parallel ones.
	Upd []UpdRecord

	// net backs Bind: rate assignment needs the original reaction records.
	net *crn.Network

	// jacOnce/jac back Jac: the sparse Jacobian assembler is
	// rate-independent, built on first use and shared by every binding.
	jacOnce sync.Once
	jac     *Jacobian
}

// UpdRecord is one step of a reaction's update program: after the owning
// reaction fires, the propensity of reaction Dep must be refreshed, and
// Form/Op1/Op2 are Dep's rate-law classification copied inline so the
// refresh needs no indexed loads from the Form/Op1/Op2 arrays.
type UpdRecord struct {
	Dep  int32
	Op1  int32
	Op2  int32
	Form int8
}

// Compiled is a Structure bound to a concrete rate-constant assignment.
// The Structure is embedded by pointer, so bindings of the same network
// share all structural arrays and a Compiled is as cheap to pass by value
// as two words. A Compiled is immutable after Bind and safe for concurrent
// use by any number of simulations.
type Compiled struct {
	*Structure
	// K is the concrete rate constant of each reaction.
	K []float64
}

// Rate-law forms. FormGeneral is the fallback for rational-gain stages and
// other higher-order constructs; everything the DAC 2011 designs emit is
// one of the specialized shapes.
const (
	FormConst   int8 = iota // no reactants (zero-order source)
	FormUni                 // A ->          a = k'·n(A)
	FormBi                  // A + B ->      a = k'·n(A)·n(B)
	FormDimer               // 2A ->         a = k'·n(A)·(n(A)-1)
	FormGeneral             // anything else
)

// Compile flattens the network under the given rate assignment: shorthand
// for NewStructure(n).Bind(rate), the single-run path. Sweeps and ensembles
// should compile the Structure once and Bind per rate point.
func Compile(n *crn.Network, rate func(crn.Reaction) float64) *Compiled {
	return NewStructure(n).Bind(rate)
}

// NewStructure builds the rate-independent compiled view of the network:
// reactant/delta CSR arrays, rate-law classification, the dependency graph
// and its update program. This is the expensive compilation phase; the
// result is shared by every Bind.
func NewStructure(n *crn.Network) *Structure {
	nsp := n.NumSpecies()
	nrx := n.NumReactions()
	s := &Structure{
		NumSpecies:   nsp,
		NumReactions: nrx,
		Order:        make([]int32, nrx),
		ReactStart:   make([]int32, nrx+1),
		DeltaStart:   make([]int32, nrx+1),
		DepStart:     make([]int32, nrx+1),
		Form:         make([]int8, nrx),
		Op1:          make([]int32, nrx),
		Op2:          make([]int32, nrx),
		net:          n,
	}

	// Pass 1: reactant terms and net deltas. The delta accumulator is a
	// dense per-species scratch plus a touched list, so compilation itself
	// is map-free and O(terms).
	acc := make([]float64, nsp)
	touched := make([]int32, 0, 8)
	for i := 0; i < nrx; i++ {
		r := n.Reaction(i)
		order := int32(0)
		for _, t := range r.Reactants {
			s.ReactSpec = append(s.ReactSpec, int32(t.Species))
			s.ReactCoeff = append(s.ReactCoeff, int32(t.Coeff))
			order += int32(t.Coeff)
			if acc[t.Species] == 0 {
				touched = append(touched, int32(t.Species))
			}
			acc[t.Species] -= float64(t.Coeff)
		}
		s.Order[i] = order
		s.ReactStart[i+1] = int32(len(s.ReactSpec))
		s.Form[i], s.Op1[i], s.Op2[i] = classify(r.Reactants)
		for _, t := range r.Products {
			if acc[t.Species] == 0 {
				touched = append(touched, int32(t.Species))
			}
			acc[t.Species] += float64(t.Coeff)
		}
		for _, sp := range touched {
			if d := acc[sp]; d != 0 {
				s.DeltaSpec = append(s.DeltaSpec, sp)
				s.DeltaVal = append(s.DeltaVal, d)
			}
			acc[sp] = 0
		}
		touched = touched[:0]
		s.DeltaStart[i+1] = int32(len(s.DeltaSpec))
	}

	// Pass 2: species -> reader reactions (CSR), then reaction -> affected
	// reactions, deduplicated with an epoch-stamped mark array instead of a
	// per-reaction map.
	readerCount := make([]int32, nsp+1)
	for _, sp := range s.ReactSpec {
		readerCount[sp+1]++
	}
	for sp := 0; sp < nsp; sp++ {
		readerCount[sp+1] += readerCount[sp]
	}
	readers := make([]int32, len(s.ReactSpec))
	fill := make([]int32, nsp)
	for i := 0; i < nrx; i++ {
		for j := s.ReactStart[i]; j < s.ReactStart[i+1]; j++ {
			sp := s.ReactSpec[j]
			readers[readerCount[sp]+fill[sp]] = int32(i)
			fill[sp]++
		}
	}

	mark := make([]int32, nrx)
	for i := range mark {
		mark[i] = -1
	}
	for i := 0; i < nrx; i++ {
		for j := s.DeltaStart[i]; j < s.DeltaStart[i+1]; j++ {
			sp := s.DeltaSpec[j]
			for r := readerCount[sp]; r < readerCount[sp+1]; r++ {
				k := readers[r]
				if mark[k] != int32(i) {
					mark[k] = int32(i)
					s.DepList = append(s.DepList, k)
				}
			}
		}
		s.DepStart[i+1] = int32(len(s.DepList))
	}

	// Pass 3: flatten the update program — DepList annotated with each
	// dependent's rate-law classification, one dense record per edge.
	s.Upd = make([]UpdRecord, len(s.DepList))
	for j, d := range s.DepList {
		s.Upd[j] = UpdRecord{Dep: d, Op1: s.Op1[d], Op2: s.Op2[d], Form: s.Form[d]}
	}
	return s
}

// Bind attaches a concrete rate assignment to the structure. rate maps a
// reaction to its rate constant (e.g. sim.Rates.Of); it is called once per
// reaction at bind time, never on the hot path. The returned Compiled
// shares all structural arrays with every other binding of this Structure.
func (s *Structure) Bind(rate func(crn.Reaction) float64) *Compiled {
	k := make([]float64, s.NumReactions)
	for i := range k {
		k[i] = rate(s.net.Reaction(i))
	}
	return &Compiled{Structure: s, K: k}
}

// Reactants returns the reactant term views (species, coefficients) of
// reaction i. The slices alias the compiled arrays; callers must not modify
// them.
func (s *Structure) Reactants(i int) (spec []int32, coeff []int32) {
	return s.ReactSpec[s.ReactStart[i]:s.ReactStart[i+1]],
		s.ReactCoeff[s.ReactStart[i]:s.ReactStart[i+1]]
}

// Deltas returns the net stoichiometry views (species, signed change) of
// reaction i. The slices alias the compiled arrays; callers must not modify
// them.
func (s *Structure) Deltas(i int) (spec []int32, val []float64) {
	return s.DeltaSpec[s.DeltaStart[i]:s.DeltaStart[i+1]],
		s.DeltaVal[s.DeltaStart[i]:s.DeltaStart[i+1]]
}

// Dependents returns the reactions whose propensity may change after
// reaction i fires. The slice aliases the compiled arrays; callers must not
// modify it.
func (s *Structure) Dependents(i int) []int32 {
	return s.DepList[s.DepStart[i]:s.DepStart[i+1]]
}

// Updates returns reaction i's update program: one record per dependency
// edge, aligned with Dependents(i). The slice aliases the compiled arrays;
// callers must not modify it.
func (s *Structure) Updates(i int) []UpdRecord {
	return s.Upd[s.DepStart[i]:s.DepStart[i+1]]
}

// StochRates returns the Ω-scaled stochastic rate constants
// k_i · Ω^(1-order_i), the constant prefactor of the propensity
//
//	a_i = k_i · Ω · Π falling(n_s, c_s) / Ω^c_s
//	    = k_i · Ω^(1-order_i) · Π falling(n_s, c_s).
//
// Folding the Ω powers in at compile time removes every division from the
// per-firing propensity evaluation.
func (c *Compiled) StochRates(omega float64) []float64 {
	out := make([]float64, c.NumReactions)
	for i := range out {
		scale := omega
		for o := int32(0); o < c.Order[i]; o++ {
			scale /= omega
		}
		out[i] = c.K[i] * scale
	}
	return out
}

// classify maps a reactant term list to its rate-law form and operands.
func classify(terms []crn.Term) (form int8, op1, op2 int32) {
	switch {
	case len(terms) == 0:
		return FormConst, -1, -1
	case len(terms) == 1 && terms[0].Coeff == 1:
		return FormUni, int32(terms[0].Species), -1
	case len(terms) == 1 && terms[0].Coeff == 2:
		return FormDimer, int32(terms[0].Species), -1
	case len(terms) == 2 && terms[0].Coeff == 1 && terms[1].Coeff == 1:
		return FormBi, int32(terms[0].Species), int32(terms[1].Species)
	default:
		return FormGeneral, -1, -1
	}
}

// PropensityStrided evaluates the stochastic propensity of reaction i for
// one lane of lane-strided molecule counts — species sp of the lane lives at
// counts[sp*stride+lane] — given the scaled rate table from StochRates. The
// arithmetic does not depend on stride or lane, which is what keeps ensemble
// lanes bit-identical at every block width; stride=1, lane=0 reads a
// contiguous count vector. The specialized forms rely on counts being
// non-negative integers (the simulators clamp at zero), so no result clamp
// is needed; the general fallback expands falling factorials by repeated
// multiplication — no math.Pow, no division — and clamps defensively.
func (c *Compiled) PropensityStrided(i int, kscaled, counts []float64, stride, lane int) float64 {
	switch c.Form[i] {
	case FormConst:
		return kscaled[i]
	case FormUni:
		return kscaled[i] * counts[int(c.Op1[i])*stride+lane]
	case FormBi:
		return kscaled[i] * counts[int(c.Op1[i])*stride+lane] * counts[int(c.Op2[i])*stride+lane]
	case FormDimer:
		n := counts[int(c.Op1[i])*stride+lane]
		return kscaled[i] * n * (n - 1)
	}
	a := kscaled[i]
	for j := c.ReactStart[i]; j < c.ReactStart[i+1]; j++ {
		n := counts[int(c.ReactSpec[j])*stride+lane]
		for k := int32(0); k < c.ReactCoeff[j]; k++ {
			a *= n - float64(k)
		}
	}
	if a < 0 {
		return 0
	}
	return a
}

// Rate evaluates the deterministic mass-action rate k · Π [S]^c of reaction
// i at concentrations y, clamping negative concentrations to zero (roundoff
// guards: RK stage evaluations may probe slightly negative states before
// the integrator's non-negative projection). Integer powers are expanded by
// repeated multiplication.
func (c *Compiled) Rate(i int, y []float64) float64 {
	switch c.Form[i] {
	case FormConst:
		return c.K[i]
	case FormUni:
		conc := y[c.Op1[i]]
		if conc < 0 {
			return 0
		}
		return c.K[i] * conc
	case FormBi:
		a, b := y[c.Op1[i]], y[c.Op2[i]]
		if a < 0 || b < 0 {
			return 0
		}
		return c.K[i] * a * b
	case FormDimer:
		conc := y[c.Op1[i]]
		if conc < 0 {
			return 0
		}
		return c.K[i] * conc * conc
	}
	rate := c.K[i]
	for j := c.ReactStart[i]; j < c.ReactStart[i+1]; j++ {
		conc := y[c.ReactSpec[j]]
		if conc < 0 {
			conc = 0
		}
		rate *= PowInt(conc, int(c.ReactCoeff[j]))
	}
	return rate
}

// Deriv accumulates the mass-action derivative into dydt (which is zeroed
// first). It is the shared RHS kernel of the ODE backend and allocates
// nothing. The rate-law switch is inlined here — with hoisted slice
// headers — because this is the inner loop of every deterministic
// experiment.
func (c *Compiled) Deriv(y, dydt []float64) {
	for i := range dydt {
		dydt[i] = 0
	}
	form, op1, op2, ks := c.Form, c.Op1, c.Op2, c.K
	dstart, dspec, dval := c.DeltaStart, c.DeltaSpec, c.DeltaVal
	for i := 0; i < c.NumReactions; i++ {
		var rate float64
		switch form[i] {
		case FormConst:
			rate = ks[i]
		case FormUni:
			conc := y[op1[i]]
			if conc < 0 {
				continue
			}
			rate = ks[i] * conc
		case FormBi:
			a, b := y[op1[i]], y[op2[i]]
			if a < 0 || b < 0 {
				continue
			}
			rate = ks[i] * a * b
		case FormDimer:
			conc := y[op1[i]]
			if conc < 0 {
				continue
			}
			rate = ks[i] * conc * conc
		default:
			rate = c.Rate(i, y)
		}
		if rate == 0 {
			continue
		}
		for j := dstart[i]; j < dstart[i+1]; j++ {
			dydt[dspec[j]] += rate * dval[j]
		}
	}
}

// ApplyDeltaStrided applies one firing of reaction i to the molecule counts
// of one lane, addressed as counts[sp*stride+lane] (see PropensityStrided),
// clamping counts at zero (which cannot trigger with correct propensities;
// it guards event-injected states).
func (s *Structure) ApplyDeltaStrided(i int, counts []float64, stride, lane int) {
	for j := s.DeltaStart[i]; j < s.DeltaStart[i+1]; j++ {
		at := int(s.DeltaSpec[j])*stride + lane
		counts[at] += s.DeltaVal[j]
		if counts[at] < 0 {
			counts[at] = 0
		}
	}
}

// PowInt returns x^n for n >= 0 by binary exponentiation. Stoichiometric
// coefficients are small integers, so this is both faster and exacter than
// math.Pow on the rate-law hot path.
func PowInt(x float64, n int) float64 {
	r := 1.0
	for n > 0 {
		if n&1 == 1 {
			r *= x
		}
		x *= x
		n >>= 1
	}
	return r
}
