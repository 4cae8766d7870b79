package repro_test

import (
	"slices"
	"testing"

	"repro/internal/crn"
	"repro/internal/logic"
	"repro/internal/sfg"
	"repro/internal/synth"
)

// TestNetworkNumberingDeterministic pins one species order and one String
// text for the 2-bit counter and the 4-tap moving average over repeated
// builds, and over repeated parses of that text. String declares only the
// species with a non-zero initial value, so the parser numbers the rest as
// it meets them. A numbering that follows map iteration order changes the
// species order from run to run, and with it the last bits of ODE finals.
func TestNetworkNumberingDeterministic(t *testing.T) {
	designs := []struct {
		name  string
		build func() (*crn.Network, error)
	}{
		{"cnt2", func() (*crn.Network, error) {
			f, err := logic.Counter(2)
			if err != nil {
				return nil, err
			}
			m, err := logic.Compile(f, "cnt")
			if err != nil {
				return nil, err
			}
			return m.Circuit.Net, nil
		}},
		{"ma4", func() (*crn.Network, error) {
			g, err := sfg.MovingAverage(4)
			if err != nil {
				return nil, err
			}
			cp, err := synth.Compile(g, "f")
			if err != nil {
				return nil, err
			}
			return cp.Circuit.Net, nil
		}},
	}
	// pin makes 20 networks, requires one species order and one text of
	// them all, and returns that text.
	pin := func(t *testing.T, what string, next func() (*crn.Network, error)) string {
		t.Helper()
		var order []string
		var text string
		for i := 0; i < 20; i++ {
			n, err := next()
			if err != nil {
				t.Fatalf("%s %d: %v", what, i, err)
			}
			switch {
			case i == 0:
				order, text = n.SpeciesNames(), n.String()
			case !slices.Equal(n.SpeciesNames(), order):
				t.Fatalf("%s %d numbers the species differently", what, i)
			case n.String() != text:
				t.Fatalf("%s %d renders different text", what, i)
			}
		}
		return text
	}
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			text := pin(t, "build", d.build)
			pin(t, "parse", func() (*crn.Network, error) { return crn.ParseString(text) })
		})
	}
}
