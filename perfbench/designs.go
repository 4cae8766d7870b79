package main

import (
	"fmt"
	"strings"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/crn"
	"repro/internal/logic"
	"repro/internal/phases"
	"repro/internal/sfg"
	"repro/internal/synth"
)

// design is one of the paper's circuits, rendered to the .crn text a client
// sends. The server only ever sees text; the parsed network kept here is the
// benchmark's own, used for reference runs in the output check.
type design struct {
	name   string
	text   string
	net    *crn.Network
	record []string // species a restricted reply may record
}

// Design indices. The order is fixed: workloads and request bodies refer to
// designs by index, so reordering would change every seeded stream.
const (
	dClock = iota // molecular clock alone, 18 reactions
	dRing2        // 2-register ring shifter, 80 reactions
	dRing4        // 4-register ring shifter, 174 reactions
	dRing8        // 8-register ring shifter, 458 reactions
	dCnt2         // 2-bit binary counter, 288 reactions
	dMA2          // 2-tap moving-average filter, 89 reactions
	dMA4          // 4-tap moving-average filter, 228 reactions
	numDesigns
)

// buildDesigns constructs every design with the repository's public
// constructors and renders it to text.
func buildDesigns() ([]design, error) {
	builders := [numDesigns]struct {
		name  string
		build func() (*crn.Network, error)
	}{
		dClock: {"clock", buildClock},
		dRing2: {"ring2", func() (*crn.Network, error) { return buildRing(2) }},
		dRing4: {"ring4", func() (*crn.Network, error) { return buildRing(4) }},
		dRing8: {"ring8", func() (*crn.Network, error) { return buildRing(8) }},
		dCnt2:  {"cnt2", buildCounter},
		dMA2:   {"ma2", func() (*crn.Network, error) { return buildMovingAverage(2) }},
		dMA4:   {"ma4", func() (*crn.Network, error) { return buildMovingAverage(4) }},
	}
	out := make([]design, numDesigns)
	for i, b := range builders {
		n, err := b.build()
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", b.name, err)
		}
		text := declared(n)
		// Reference runs use the network parsed from the same text the
		// server parses, so both sides simulate identical species order.
		parsed, err := crn.ParseString(text)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", b.name, err)
		}
		out[i] = design{name: b.name, text: text, net: parsed, record: recordSpecies(parsed)}
	}
	return out, nil
}

// declared renders the network as String does, preceded by a species
// declaration for every species in construction order. String alone
// declares only species with a non-zero initial value, and the parser
// numbers the others in map-iteration order as it meets them in reaction
// terms, so two parses of one String text can order species differently
// and the ODE finals then differ in the last bits (NOTES.md, Findings).
// With every species declared, the request bytes fix the server's network.
func declared(n *crn.Network) string {
	var sb strings.Builder
	for _, s := range n.SpeciesNames() {
		sb.WriteString("species " + s + "\n")
	}
	sb.WriteString(n.String())
	return sb.String()
}

// recordSpecies lists the species a restricted reply may record: the
// register outputs (species named *.Q) and the clock phases.
func recordSpecies(n *crn.Network) []string {
	var out []string
	for _, s := range n.SpeciesNames() {
		for _, suffix := range []string{".Q", ".CR", ".CG", ".CB"} {
			if strings.HasSuffix(s, suffix) {
				out = append(out, s)
			}
		}
	}
	return out
}

func buildClock() (*crn.Network, error) {
	n := crn.NewNetwork()
	s := phases.NewScheme(n, "ph")
	if _, err := clock.Add(s, "clk", 1); err != nil {
		return nil, err
	}
	if err := s.Build(); err != nil {
		return nil, err
	}
	return n, nil
}

// buildRing is a clocked k-register ring shifter: register i feeds register
// i+1, and a single token circulates.
func buildRing(k int) (*crn.Network, error) {
	c := core.New("ring")
	regs := make([]*core.Register, k)
	for i := range regs {
		init := 0.0
		if i == 0 {
			init = 1
		}
		r, err := c.NewRegister(fmt.Sprintf("d%d", i), init)
		if err != nil {
			return nil, err
		}
		regs[i] = r
	}
	for i := range regs {
		if err := c.Gain(regs[i].Q, regs[(i+1)%k].NS, 1, 1); err != nil {
			return nil, err
		}
	}
	if err := c.Finalize(); err != nil {
		return nil, err
	}
	return c.Net, nil
}

func buildCounter() (*crn.Network, error) {
	f, err := logic.Counter(2)
	if err != nil {
		return nil, err
	}
	m, err := logic.Compile(f, "cnt")
	if err != nil {
		return nil, err
	}
	return m.Circuit.Net, nil
}

func buildMovingAverage(taps int) (*crn.Network, error) {
	g, err := sfg.MovingAverage(taps)
	if err != nil {
		return nil, err
	}
	cp, err := synth.Compile(g, "f")
	if err != nil {
		return nil, err
	}
	return cp.Circuit.Net, nil
}
