// Package crn models chemical reaction networks (CRNs) with coarse rate
// categories, the substrate on which the molecular sequential-computation
// constructs of Jiang, Riedel and Parhi (DAC 2011) are built.
//
// A network is a set of named species and a set of reactions. Each reaction
// consumes integer multiples of reactant species and produces integer
// multiples of product species, and carries a rate *category* — Fast or Slow —
// rather than a precise rate constant. The whole point of the paper's design
// style is that computation is exact as long as every Fast reaction is much
// faster than every Slow one; the specific values do not matter. Concrete
// values are bound only at simulation time (see package sim).
//
// Concentrations are dimensionless float64 "units". A signal value of 1.0
// means one unit of concentration of the corresponding species.
package crn

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Category is a coarse rate category. The constructs in this repository use
// only Fast and Slow, per the papers' two-category discipline.
type Category int

const (
	// Slow marks a reaction in the slow category. Zero-order "generator"
	// reactions (no reactants) are always Slow in the paper's constructs.
	Slow Category = iota
	// Fast marks a reaction in the fast category. Correctness of the
	// constructs requires only that Fast rates dominate Slow rates.
	Fast
)

// String returns "slow" or "fast".
func (c Category) String() string {
	switch c {
	case Slow:
		return "slow"
	case Fast:
		return "fast"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Term is one species participating in a reaction with a stoichiometric
// coefficient. Coefficients are strictly positive; a species absent from a
// reaction simply has no Term.
type Term struct {
	Species int // index into Network's species table
	Coeff   int // stoichiometric coefficient, >= 1
}

// Reaction is a single chemical reaction. Reactants and Products hold
// distinct species with positive coefficients. An empty Reactants list is a
// zero-order source (the paper's absence-indicator generators); an empty
// Products list is a sink (degradation).
type Reaction struct {
	Name      string // optional label, used in diagnostics
	Reactants []Term
	Products  []Term
	Cat       Category
	// Mult scales the category's base rate constant for this reaction.
	// It is almost always 1; it exists so robustness experiments can
	// jitter individual reactions within their category.
	Mult float64
}

// Order returns the total molecularity of the reaction (sum of reactant
// coefficients). 0 means a zero-order source.
func (r Reaction) Order() int {
	n := 0
	for _, t := range r.Reactants {
		n += t.Coeff
	}
	return n
}

// Network is a chemical reaction network: species, reactions and initial
// concentrations. The zero value is an empty network ready for use.
type Network struct {
	species   []string
	index     map[string]int
	reactions []Reaction
	init      []float64
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{index: make(map[string]int)}
}

// AddSpecies registers a species by name and returns its index. Adding an
// existing name returns the existing index, so construction code can call it
// freely.
func (n *Network) AddSpecies(name string) int {
	if n.index == nil {
		n.index = make(map[string]int)
	}
	if i, ok := n.index[name]; ok {
		return i
	}
	i := len(n.species)
	n.species = append(n.species, name)
	n.init = append(n.init, 0)
	n.index[name] = i
	return i
}

// SpeciesIndex returns the index of a named species and whether it exists.
func (n *Network) SpeciesIndex(name string) (int, bool) {
	i, ok := n.index[name]
	return i, ok
}

// MustIndex returns the index of a named species, panicking if it is absent.
// It is intended for construction code where absence is a programming error.
func (n *Network) MustIndex(name string) int {
	i, ok := n.index[name]
	if !ok {
		panic(fmt.Sprintf("crn: unknown species %q", name))
	}
	return i
}

// SpeciesName returns the name of the species at index i.
func (n *Network) SpeciesName(i int) string { return n.species[i] }

// NumSpecies returns the number of registered species.
func (n *Network) NumSpecies() int { return len(n.species) }

// NumReactions returns the number of reactions.
func (n *Network) NumReactions() int { return len(n.reactions) }

// Reaction returns the i-th reaction.
func (n *Network) Reaction(i int) Reaction { return n.reactions[i] }

// Reactions returns the reaction slice. Callers must not modify it.
func (n *Network) Reactions() []Reaction { return n.reactions }

// SpeciesNames returns a copy of the species name table, in index order.
func (n *Network) SpeciesNames() []string {
	out := make([]string, len(n.species))
	copy(out, n.species)
	return out
}

// SetInit sets the initial concentration of a named species, registering the
// species if needed. Negative concentrations are rejected.
func (n *Network) SetInit(name string, conc float64) error {
	if conc < 0 {
		return fmt.Errorf("crn: negative initial concentration %g for %q", conc, name)
	}
	i := n.AddSpecies(name)
	n.init[i] = conc
	return nil
}

// Init returns a copy of the initial concentration vector, indexed by
// species index.
func (n *Network) Init() []float64 {
	out := make([]float64, len(n.init))
	copy(out, n.init)
	return out
}

// InitOf returns the initial concentration of the named species (0 if the
// species is unknown).
func (n *Network) InitOf(name string) float64 {
	if i, ok := n.index[name]; ok {
		return n.init[i]
	}
	return 0
}

// termList converts a name->coeff map into a normalized, sorted Term list.
// New species are numbered in name order, not map order, so one build or
// one parse always yields one network.
func (n *Network) termList(m map[string]int) ([]Term, error) {
	var buf [4]string // sides rarely name more species: no allocation
	names := buf[:0]
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	terms := make([]Term, 0, len(m))
	for _, name := range names {
		c := m[name]
		if c <= 0 {
			return nil, fmt.Errorf("crn: non-positive coefficient %d for species %q", c, name)
		}
		terms = append(terms, Term{Species: n.AddSpecies(name), Coeff: c})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].Species < terms[j].Species })
	return terms, nil
}

// AddReaction adds a reaction described by reactant and product maps
// (species name -> coefficient) with the given category and rate multiplier.
// A nil or empty reactants map makes a zero-order source; a nil or empty
// products map makes a sink. mult must be positive.
func (n *Network) AddReaction(name string, reactants, products map[string]int, cat Category, mult float64) error {
	if mult <= 0 {
		return fmt.Errorf("crn: reaction %q: non-positive rate multiplier %g", name, mult)
	}
	if len(reactants) == 0 && len(products) == 0 {
		return fmt.Errorf("crn: reaction %q has neither reactants nor products", name)
	}
	rt, err := n.termList(reactants)
	if err != nil {
		return fmt.Errorf("crn: reaction %q: %w", name, err)
	}
	pt, err := n.termList(products)
	if err != nil {
		return fmt.Errorf("crn: reaction %q: %w", name, err)
	}
	n.reactions = append(n.reactions, Reaction{
		Name: name, Reactants: rt, Products: pt, Cat: cat, Mult: mult,
	})
	return nil
}

// MustAddReaction is AddReaction that panics on error; for use by
// programmatic construction code where malformed input is a bug.
func (n *Network) MustAddReaction(name string, reactants, products map[string]int, cat Category, mult float64) {
	if err := n.AddReaction(name, reactants, products, cat, mult); err != nil {
		panic(err)
	}
}

// R is shorthand for MustAddReaction with multiplier 1, the overwhelmingly
// common case in the paper's constructs.
func (n *Network) R(name string, reactants, products map[string]int, cat Category) {
	n.MustAddReaction(name, reactants, products, cat, 1)
}

// Validate checks structural well-formedness: positive coefficients, species
// indices in range and positive multipliers. Networks built through the
// public API are always valid; Validate is a guard for parsed or
// programmatically transformed networks.
func (n *Network) Validate() error {
	for i, r := range n.reactions {
		if r.Mult <= 0 {
			return fmt.Errorf("crn: reaction %d (%s): non-positive multiplier %g", i, r.Name, r.Mult)
		}
		if len(r.Reactants) == 0 && len(r.Products) == 0 {
			return fmt.Errorf("crn: reaction %d (%s): empty", i, r.Name)
		}
		for _, terms := range [2][]Term{r.Reactants, r.Products} {
			for _, t := range terms {
				if t.Coeff <= 0 {
					return fmt.Errorf("crn: reaction %d (%s): non-positive coefficient", i, r.Name)
				}
				if t.Species < 0 || t.Species >= len(n.species) {
					return fmt.Errorf("crn: reaction %d (%s): species index %d out of range", i, r.Name, t.Species)
				}
			}
		}
	}
	for name, i := range n.index {
		if i < 0 || i >= len(n.species) || n.species[i] != name {
			return fmt.Errorf("crn: corrupt species index for %q", name)
		}
	}
	return nil
}

// UnusedSpecies returns the names of species that appear in no reaction —
// neither as reactant nor as product — in index order. Such species are
// inert: their concentration can never change, so their presence in a
// parsed file almost always indicates a typo in a reaction line. cmd/crnsim
// rejects files that declare them.
func (n *Network) UnusedSpecies() []string {
	used := make([]bool, len(n.species))
	for _, r := range n.reactions {
		for _, t := range r.Reactants {
			used[t.Species] = true
		}
		for _, t := range r.Products {
			used[t.Species] = true
		}
	}
	var out []string
	for i, name := range n.species {
		if !used[i] {
			out = append(out, name)
		}
	}
	return out
}

// MaxOrder returns the largest reaction molecularity in the network. The
// constructs in this repository keep this at 2 except for explicit
// rational-gain stages, and DNA strand-displacement compilation (package dsd)
// requires <= 2.
func (n *Network) MaxOrder() int {
	m := 0
	for _, r := range n.reactions {
		if o := r.Order(); o > m {
			m = o
		}
	}
	return m
}

// StoichVector returns the net stoichiometry change vector (per species
// index) caused by one firing of reaction i.
func (n *Network) StoichVector(i int) []float64 {
	v := make([]float64, len(n.species))
	r := n.reactions[i]
	for _, t := range r.Reactants {
		v[t.Species] -= float64(t.Coeff)
	}
	for _, t := range r.Products {
		v[t.Species] += float64(t.Coeff)
	}
	return v
}

// ConservedSum reports whether the weighted sum of the given species
// (name -> weight) is invariant under every reaction in the network. The
// paper's transfer constructs conserve signal mass across colour stages;
// tests use this to check construction invariants statically.
func (n *Network) ConservedSum(weights map[string]float64) bool {
	w := make([]float64, len(n.species))
	for name, wt := range weights {
		if i, ok := n.index[name]; ok {
			w[i] = wt
		}
	}
	for i := range n.reactions {
		sv := n.StoichVector(i)
		sum := 0.0
		for j, d := range sv {
			sum += w[j] * d
		}
		if sum > 1e-12 || sum < -1e-12 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := NewNetwork()
	c.species = append([]string(nil), n.species...)
	c.init = append([]float64(nil), n.init...)
	for name, i := range n.index {
		c.index[name] = i
	}
	c.reactions = make([]Reaction, len(n.reactions))
	for i, r := range n.reactions {
		rc := r
		rc.Reactants = append([]Term(nil), r.Reactants...)
		rc.Products = append([]Term(nil), r.Products...)
		c.reactions[i] = rc
	}
	return c
}

// ScaleMult multiplies the rate multiplier of reaction i by f. Used by
// robustness experiments to jitter individual reactions within their
// category.
func (n *Network) ScaleMult(i int, f float64) error {
	if f <= 0 {
		return fmt.Errorf("crn: non-positive scale factor %g", f)
	}
	n.reactions[i].Mult *= f
	return nil
}

// FormatReaction renders reaction i in the text format accepted by Parse,
// e.g. "b + R1 -> G1 : slow" or "2 G1 -> IG1 : slow".
func (n *Network) FormatReaction(i int) string {
	r := n.reactions[i]
	var sb strings.Builder
	writeSide := func(terms []Term) {
		if len(terms) == 0 {
			return
		}
		terms = append([]Term(nil), terms...)
		sort.Slice(terms, func(a, b int) bool {
			return n.species[terms[a].Species] < n.species[terms[b].Species]
		})
		for k, t := range terms {
			if k > 0 {
				sb.WriteString(" + ")
			}
			if t.Coeff != 1 {
				fmt.Fprintf(&sb, "%d ", t.Coeff)
			}
			sb.WriteString(n.species[t.Species])
		}
	}
	writeSide(r.Reactants)
	sb.WriteString(" -> ")
	writeSide(r.Products)
	fmt.Fprintf(&sb, " : %s", r.Cat)
	if r.Mult != 1 {
		fmt.Fprintf(&sb, " %g", r.Mult)
	}
	return sb.String()
}

// String renders the whole network in the text format accepted by Parse:
// init lines followed by reaction lines.
func (n *Network) String() string {
	var sb strings.Builder
	for i, name := range n.species {
		if n.init[i] != 0 {
			fmt.Fprintf(&sb, "init %s = %g\n", name, n.init[i])
		}
	}
	for i := range n.reactions {
		sb.WriteString(n.FormatReaction(i))
		sb.WriteByte('\n')
	}
	return sb.String()
}
