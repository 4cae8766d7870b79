package kernel

import (
	"math"
	"testing"

	"repro/internal/crn"
)

// testRate maps Fast to 100, Slow to 1, times the multiplier — the same
// shape as sim.DefaultRates without importing sim (which imports kernel).
func testRate(r crn.Reaction) float64 {
	if r.Cat == crn.Fast {
		return 100 * r.Mult
	}
	return r.Mult
}

func buildNet(t testing.TB) *crn.Network {
	n := crn.NewNetwork()
	// A + B -> C (fast), 2C -> A (slow), 0 -> B (slow source), C -> 0 (sink).
	n.R("bind", map[string]int{"A": 1, "B": 1}, map[string]int{"C": 1}, crn.Fast)
	n.R("dimer", map[string]int{"C": 2}, map[string]int{"A": 1}, crn.Slow)
	n.R("src", nil, map[string]int{"B": 1}, crn.Slow)
	n.R("sink", map[string]int{"C": 1}, nil, crn.Slow)
	// Catalyst: D + A -> D + A + C, net delta only on C.
	n.R("cat", map[string]int{"D": 1, "A": 1}, map[string]int{"D": 1, "A": 1, "C": 1}, crn.Fast)
	return n
}

func TestCompileShapes(t *testing.T) {
	n := buildNet(t)
	c := Compile(n, testRate)
	if c.NumReactions != 5 || c.NumSpecies != n.NumSpecies() {
		t.Fatalf("compiled %d reactions / %d species", c.NumReactions, c.NumSpecies)
	}
	wantOrder := []int32{2, 2, 0, 1, 2}
	for i, w := range wantOrder {
		if c.Order[i] != w {
			t.Fatalf("reaction %d order = %d, want %d", i, c.Order[i], w)
		}
	}
	if c.K[0] != 100 || c.K[1] != 1 {
		t.Fatalf("rates = %v", c.K[:2])
	}
	// Catalyst net delta: only C, +1.
	spec, val := c.Deltas(4)
	if len(spec) != 1 || n.SpeciesName(int(spec[0])) != "C" || val[0] != 1 {
		t.Fatalf("catalyst deltas = %v %v", spec, val)
	}
	// Zero-order source has no reactant terms.
	rs, _ := c.Reactants(2)
	if len(rs) != 0 {
		t.Fatalf("source has reactant terms %v", rs)
	}
}

func TestCompileDependents(t *testing.T) {
	n := buildNet(t)
	c := Compile(n, testRate)
	// Reference dependency graph via the straightforward map construction.
	nrx := n.NumReactions()
	readers := map[int]map[int]bool{}
	for i := 0; i < nrx; i++ {
		for _, tm := range n.Reaction(i).Reactants {
			if readers[tm.Species] == nil {
				readers[tm.Species] = map[int]bool{}
			}
			readers[tm.Species][i] = true
		}
	}
	for i := 0; i < nrx; i++ {
		want := map[int]bool{}
		sv := n.StoichVector(i)
		for sp, d := range sv {
			if d == 0 {
				continue
			}
			for k := range readers[sp] {
				want[k] = true
			}
		}
		got := map[int]bool{}
		for _, k := range c.Dependents(i) {
			got[int(k)] = true
		}
		if len(got) != len(want) {
			t.Fatalf("reaction %d dependents = %v, want %v", i, got, want)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("reaction %d missing dependent %d", i, k)
			}
		}
	}
}

func TestPropensityMatchesReference(t *testing.T) {
	n := buildNet(t)
	c := Compile(n, testRate)
	const omega = 50.0
	kscaled := c.StochRates(omega)
	counts := []float64{7, 3, 5, 2} // A B C D
	// Reference: k·Ω·Π falling(n,c)/Ω^c, the pre-kernel formula.
	for i := 0; i < c.NumReactions; i++ {
		a := c.K[i] * omega
		for _, tm := range n.Reaction(i).Reactants {
			nm := counts[tm.Species]
			for k := 0; k < tm.Coeff; k++ {
				a *= (nm - float64(k)) / omega
			}
		}
		got := c.PropensityStrided(i, kscaled, counts, 1, 0)
		if math.Abs(got-a) > 1e-9*math.Max(1, a) {
			t.Fatalf("reaction %d propensity = %g, want %g", i, got, a)
		}
	}
	// Depleted bimolecular pair: falling(1,2) = 0.
	counts[2] = 1
	if got := c.PropensityStrided(1, kscaled, counts, 1, 0); got != 0 {
		t.Fatalf("falling(1,2) propensity = %g, want 0", got)
	}
}

func TestDerivMatchesReference(t *testing.T) {
	n := buildNet(t)
	c := Compile(n, testRate)
	y := []float64{0.5, 0.25, 0.125, 1}
	dydt := make([]float64, len(y))
	c.Deriv(y, dydt)
	want := make([]float64, len(y))
	for i := 0; i < n.NumReactions(); i++ {
		rate := c.K[i]
		for _, tm := range n.Reaction(i).Reactants {
			rate *= math.Pow(y[tm.Species], float64(tm.Coeff))
		}
		for sp, d := range n.StoichVector(i) {
			want[sp] += rate * d
		}
	}
	for i := range want {
		if math.Abs(dydt[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("dydt[%d] = %g, want %g", i, dydt[i], want[i])
		}
	}
}

func TestPowInt(t *testing.T) {
	for n := 0; n <= 8; n++ {
		for _, x := range []float64{0, 0.5, 1, 2, 3.25} {
			got, want := PowInt(x, n), math.Pow(x, float64(n))
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("PowInt(%g, %d) = %g, want %g", x, n, got, want)
			}
		}
	}
}

// BenchmarkPowInt / BenchmarkMathPow quantify the win of repeated
// multiplication over math.Pow for small integer stoichiometric
// coefficients — the satellite fix this PR makes on every rate-law path.
func BenchmarkPowInt(b *testing.B) {
	x, s := 1.7, 0.0
	for i := 0; i < b.N; i++ {
		s += PowInt(x, 3)
	}
	benchSink = s
}

func BenchmarkMathPow(b *testing.B) {
	x, s := 1.7, 0.0
	for i := 0; i < b.N; i++ {
		s += math.Pow(x, 3)
	}
	benchSink = s
}

var benchSink float64
