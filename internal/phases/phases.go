// Package phases implements the tri-phase colour discipline that all of the
// paper's sequential constructs share (and that the companion IWBDA abstract
// spells out reaction-by-reaction):
//
//   - every stateful species is colour-coded red, green or blue;
//   - all state transfers move quantities from one colour to the next
//     (red→green, green→blue, blue→red);
//   - three global *absence indicators* — written r, g, b in the paper — are
//     produced by slow zero-order reactions and consumed quickly by any
//     species of the matching colour, so an indicator accumulates only while
//     its colour class is completely empty;
//   - a transfer out of colour c is gated by the absence indicator of the
//     *previous* colour (red→green waits for blue to empty, and so on),
//     which forces the three phases to alternate strictly;
//   - a positive-feedback construct (2G ⇌ I_G, I_G + R → 2G + G) makes each
//     transfer accelerate once it has begun, producing the crisp hand-offs
//     of the paper's figures.
//
// A Scheme collects colour membership and transfer declarations and then
// Build()s all of the above reactions into a crn.Network. The clock
// (package clock), the synchronous registers (package core) and the
// self-timed delay elements (package async) are all thin layers over this
// package.
package phases

import (
	"fmt"
	"sort"

	"repro/internal/crn"
	"repro/internal/obs"
)

// Color is one of the three transfer phases.
type Color int

const (
	Red Color = iota
	Green
	Blue
)

// Next returns the colour that follows c in the transfer cycle
// (red→green→blue→red).
func (c Color) Next() Color { return (c + 1) % 3 }

// Prev returns the colour that precedes c in the transfer cycle.
func (c Color) Prev() Color { return (c + 2) % 3 }

// String returns "red", "green" or "blue".
func (c Color) String() string {
	switch c {
	case Red:
		return "red"
	case Green:
		return "green"
	case Blue:
		return "blue"
	default:
		return fmt.Sprintf("Color(%d)", int(c))
	}
}

// indicatorSuffix is the paper's lower-case name for each colour's absence
// indicator.
func (c Color) indicatorSuffix() string {
	return [...]string{"r", "g", "b"}[c]
}

// Scheme accumulates colour members and transfers for one network and emits
// the full reaction set on Build. A network normally carries exactly one
// Scheme; sharing one scheme between the clock and the datapath is what
// synchronizes them (the common absence indicators order the phases of
// *all* members, as the companion abstract emphasizes).
type Scheme struct {
	net *crn.Network
	ns  string

	members    map[Color][]string
	memberSet  map[string]Color
	transfers  []transfer
	noFeedback bool
	built      bool
}

type transfer struct {
	name     string
	from     Color
	src      string
	srcCoeff int
	products map[string]int
}

// NewScheme creates a scheme over the network with the given namespace for
// its indicator species (e.g. ns "ph" yields species ph.r, ph.g, ph.b).
func NewScheme(net *crn.Network, ns string) *Scheme {
	s := &Scheme{
		net:       net,
		ns:        ns,
		members:   make(map[Color][]string),
		memberSet: make(map[string]Color),
	}
	for c := Red; c <= Blue; c++ {
		net.AddSpecies(s.Indicator(c))
	}
	return s
}

// Net returns the underlying network.
func (s *Scheme) Net() *crn.Network { return s.net }

// DisableFeedback omits the positive-feedback dimer machinery from Build.
// Correctness is unaffected — transfers still complete and phases still
// alternate — but hand-offs lose their sharpening. It exists for the
// ablation experiment (E11) quantifying what the paper's feedback reactions
// buy.
func (s *Scheme) DisableFeedback() { s.noFeedback = true }

// Indicator returns the name of colour c's absence indicator species.
func (s *Scheme) Indicator(c Color) string {
	return s.ns + "." + c.indicatorSuffix()
}

// Dimer returns the name of the positive-feedback dimer species of a member.
func (s *Scheme) Dimer(member string) string { return "I_" + member }

// MemberColor reports the colour of a registered member.
func (s *Scheme) MemberColor(name string) (Color, bool) {
	c, ok := s.memberSet[name]
	return c, ok
}

// Members returns the members of colour c in registration order.
func (s *Scheme) Members(c Color) []string {
	return append([]string(nil), s.members[c]...)
}

// AddMember registers a species as a member of colour c. Members consume
// their colour's absence indicator (so the indicator can only accumulate
// when every member of the colour is empty) and receive a positive-feedback
// dimer. Registering the same name twice with the same colour is a no-op;
// with a different colour it is an error.
func (s *Scheme) AddMember(c Color, name string) error {
	if s.built {
		return fmt.Errorf("phases: scheme %q already built", s.ns)
	}
	if prev, ok := s.memberSet[name]; ok {
		if prev != c {
			return fmt.Errorf("phases: species %q already a %s member, cannot also be %s", name, prev, c)
		}
		return nil
	}
	s.net.AddSpecies(name)
	s.memberSet[name] = c
	s.members[c] = append(s.members[c], name)
	return nil
}

// MustAddMember is AddMember that panics on error.
func (s *Scheme) MustAddMember(c Color, name string) {
	if err := s.AddMember(c, name); err != nil {
		panic(err)
	}
}

// AddTransfer declares a gated transfer consuming one unit of src (a member
// of colour from) and producing the given products per firing. Products that
// are scheme members must belong to colour from.Next(); non-member products
// (observation sinks) are allowed. The transfer is gated on the absence
// indicator of from.Prev() and accelerated by the feedback dimers of all
// from.Next() members, exactly as in the companion abstract's reactions
// (4)–(6).
func (s *Scheme) AddTransfer(name, src string, products map[string]int) error {
	return s.AddTransferN(name, src, 1, products)
}

// AddTransferN is AddTransfer with a stoichiometric coefficient q on the
// source (q units of src consumed per firing), used by rational-gain stages
// such as 2X → Y. For q > 1 the positive-feedback accelerators are omitted —
// they would require termolecular reactions — so such transfers complete on
// the slow timescale alone; correctness is unaffected because the phase
// cannot end until the source is exhausted.
func (s *Scheme) AddTransferN(name, src string, q int, products map[string]int) error {
	if s.built {
		return fmt.Errorf("phases: scheme %q already built", s.ns)
	}
	if q < 1 {
		return fmt.Errorf("phases: transfer %q: source coefficient %d < 1", name, q)
	}
	from, ok := s.memberSet[src]
	if !ok {
		return fmt.Errorf("phases: transfer %q: source %q is not a scheme member", name, src)
	}
	for p := range products {
		if pc, ok := s.memberSet[p]; ok && pc != from.Next() {
			return fmt.Errorf("phases: transfer %q: product %q is %s, want %s", name, p, pc, from.Next())
		}
	}
	// Register new products in name order: map order would number them
	// differently on every build.
	names := make([]string, 0, len(products))
	for p := range products {
		names = append(names, p)
	}
	sort.Strings(names)
	prods := make(map[string]int, len(products))
	for _, p := range names {
		c := products[p]
		if c < 1 {
			return fmt.Errorf("phases: transfer %q: product %q coefficient %d < 1", name, p, c)
		}
		s.net.AddSpecies(p)
		prods[p] = c
	}
	s.transfers = append(s.transfers, transfer{name: name, from: from, src: src, srcCoeff: q, products: prods})
	return nil
}

// MustAddTransfer is AddTransfer that panics on error.
func (s *Scheme) MustAddTransfer(name, src string, products map[string]int) {
	if err := s.AddTransfer(name, src, products); err != nil {
		panic(err)
	}
}

// Build emits every reaction of the scheme into the network:
//
//	generators    ∅ →slow ind(c)                      (one per colour)
//	consumption   ind(c) + m →fast m                  (per member)
//	dimers        2m ⇌ I_m  (slow forward, fast back) (per member)
//	transfers     ind(prev) + q·src →slow products    (per transfer)
//	feedback      I_m + src →fast 2m + products       (per transfer × target member, q = 1 only)
//
// Build may be called once.
func (s *Scheme) Build() error {
	if s.built {
		return fmt.Errorf("phases: scheme %q already built", s.ns)
	}
	s.built = true
	n := s.net
	for c := Red; c <= Blue; c++ {
		ind := s.Indicator(c)
		if err := n.AddReaction("gen."+ind, nil, map[string]int{ind: 1}, crn.Slow, 1); err != nil {
			return err
		}
		for _, m := range s.members[c] {
			if err := n.AddReaction("absorb."+m,
				map[string]int{ind: 1, m: 1}, map[string]int{m: 1}, crn.Fast, 1); err != nil {
				return err
			}
			if s.noFeedback {
				continue
			}
			dim := s.Dimer(m)
			if err := n.AddReaction("dimerize."+m,
				map[string]int{m: 2}, map[string]int{dim: 1}, crn.Slow, 1); err != nil {
				return err
			}
			if err := n.AddReaction("undimerize."+m,
				map[string]int{dim: 1}, map[string]int{m: 2}, crn.Fast, 1); err != nil {
				return err
			}
		}
	}
	for _, tr := range s.transfers {
		gate := s.Indicator(tr.from.Prev())
		reactants := map[string]int{gate: 1, tr.src: tr.srcCoeff}
		if err := n.AddReaction("xfer."+tr.name, reactants, tr.products, crn.Slow, 1); err != nil {
			return err
		}
		if tr.srcCoeff != 1 || s.noFeedback {
			continue
		}
		for _, m := range s.members[tr.from.Next()] {
			prods := map[string]int{}
			for p, c := range tr.products {
				prods[p] += c
			}
			prods[m] += 2
			if err := n.AddReaction("fb."+tr.name+"."+m,
				map[string]int{s.Dimer(m): 1, tr.src: 1}, prods, crn.Fast, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// MustBuild is Build that panics on error.
func (s *Scheme) MustBuild() {
	if err := s.Build(); err != nil {
		panic(err)
	}
}

// PhaseWatcher returns a watcher that emits an obs.PhaseChange whenever the
// colour class holding the largest total member concentration changes —
// i.e. live tracking of the scheme's red/green/blue phase as simulation
// proceeds. eps is the minimum dominant mass for a phase to count (use a
// fraction of the circulating signal quantity to suppress hand-off chatter).
// Call after every member has been registered.
func (s *Scheme) PhaseWatcher(eps float64) *obs.PhaseWatcher {
	groups := make([]obs.PhaseGroup, 0, 3)
	for c := Red; c <= Blue; c++ {
		groups = append(groups, obs.PhaseGroup{Name: c.String(), Species: s.Members(c)})
	}
	return &obs.PhaseWatcher{Groups: groups, Eps: eps}
}
