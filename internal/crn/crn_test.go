package crn

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddSpeciesIdempotent(t *testing.T) {
	n := NewNetwork()
	a := n.AddSpecies("X")
	b := n.AddSpecies("Y")
	if a == b {
		t.Fatalf("distinct species share index %d", a)
	}
	if again := n.AddSpecies("X"); again != a {
		t.Fatalf("re-adding X: got %d, want %d", again, a)
	}
	if n.NumSpecies() != 2 {
		t.Fatalf("NumSpecies = %d, want 2", n.NumSpecies())
	}
}

func TestSpeciesLookup(t *testing.T) {
	n := NewNetwork()
	n.AddSpecies("R1")
	if i, ok := n.SpeciesIndex("R1"); !ok || i != 0 {
		t.Fatalf("SpeciesIndex(R1) = %d,%v", i, ok)
	}
	if _, ok := n.SpeciesIndex("missing"); ok {
		t.Fatal("found species that was never added")
	}
	if got := n.SpeciesName(0); got != "R1" {
		t.Fatalf("SpeciesName(0) = %q", got)
	}
}

func TestMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndex on unknown species did not panic")
		}
	}()
	NewNetwork().MustIndex("nope")
}

func TestSetInit(t *testing.T) {
	n := NewNetwork()
	if err := n.SetInit("X", 2.5); err != nil {
		t.Fatal(err)
	}
	if got := n.InitOf("X"); got != 2.5 {
		t.Fatalf("InitOf(X) = %g", got)
	}
	if got := n.InitOf("unknown"); got != 0 {
		t.Fatalf("InitOf(unknown) = %g, want 0", got)
	}
	if err := n.SetInit("X", -1); err == nil {
		t.Fatal("negative init accepted")
	}
	init := n.Init()
	init[0] = 99 // must not alias internal state
	if n.InitOf("X") != 2.5 {
		t.Fatal("Init() aliases internal storage")
	}
}

func TestAddReactionValidation(t *testing.T) {
	n := NewNetwork()
	if err := n.AddReaction("r", nil, nil, Slow, 1); err == nil {
		t.Fatal("empty reaction accepted")
	}
	if err := n.AddReaction("r", map[string]int{"X": 1}, nil, Slow, 0); err == nil {
		t.Fatal("zero multiplier accepted")
	}
	if err := n.AddReaction("r", map[string]int{"X": 0}, map[string]int{"Y": 1}, Slow, 1); err == nil {
		t.Fatal("zero coefficient accepted")
	}
	if err := n.AddReaction("ok", map[string]int{"X": 1}, map[string]int{"Y": 2}, Fast, 1); err != nil {
		t.Fatal(err)
	}
	if n.NumReactions() != 1 {
		t.Fatalf("NumReactions = %d", n.NumReactions())
	}
}

func TestReactionOrderAndStoich(t *testing.T) {
	n := NewNetwork()
	n.R("gen", nil, map[string]int{"r": 1}, Slow)
	n.R("dimer", map[string]int{"G": 2}, map[string]int{"I": 1}, Slow)
	n.R("xfer", map[string]int{"b": 1, "R": 1}, map[string]int{"G": 1}, Slow)

	if got := n.Reaction(0).Order(); got != 0 {
		t.Fatalf("zero-order reaction order = %d", got)
	}
	if got := n.Reaction(1).Order(); got != 2 {
		t.Fatalf("dimer order = %d", got)
	}
	if got := n.MaxOrder(); got != 2 {
		t.Fatalf("MaxOrder = %d", got)
	}

	sv := n.StoichVector(1)
	gi := n.MustIndex("G")
	ii := n.MustIndex("I")
	if sv[gi] != -2 || sv[ii] != 1 {
		t.Fatalf("dimer stoich: G=%g I=%g", sv[gi], sv[ii])
	}
}

func TestConservedSum(t *testing.T) {
	n := NewNetwork()
	// The tri-phase transfer chain conserves signal mass across colours.
	n.R("rg", map[string]int{"b": 1, "R": 1}, map[string]int{"G": 1}, Slow)
	n.R("gb", map[string]int{"r": 1, "G": 1}, map[string]int{"B": 1}, Slow)
	n.R("br", map[string]int{"g": 1, "B": 1}, map[string]int{"R": 1}, Slow)
	n.R("genr", nil, map[string]int{"r": 1}, Slow)

	if !n.ConservedSum(map[string]float64{"R": 1, "G": 1, "B": 1}) {
		t.Fatal("R+G+B should be conserved")
	}
	if n.ConservedSum(map[string]float64{"R": 1, "G": 1}) {
		t.Fatal("R+G should not be conserved")
	}
	if n.ConservedSum(map[string]float64{"r": 1}) {
		t.Fatal("indicator r is generated; should not be conserved")
	}
}

func TestHalvingGainConservation(t *testing.T) {
	n := NewNetwork()
	n.R("halve", map[string]int{"X": 2}, map[string]int{"Y": 1}, Fast)
	// X + 2Y is conserved by 2X -> Y.
	if !n.ConservedSum(map[string]float64{"X": 1, "Y": 2}) {
		t.Fatal("X + 2Y should be conserved under 2X -> Y")
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := NewNetwork()
	n.R("a", map[string]int{"X": 1}, map[string]int{"Y": 1}, Fast)
	if err := n.SetInit("X", 1); err != nil {
		t.Fatal(err)
	}
	c := n.Clone()
	if err := c.ScaleMult(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.SetInit("X", 9); err != nil {
		t.Fatal(err)
	}
	c.AddSpecies("Z")
	if n.Reaction(0).Mult != 1 {
		t.Fatal("ScaleMult on clone changed original")
	}
	if n.InitOf("X") != 1 {
		t.Fatal("SetInit on clone changed original")
	}
	if n.NumSpecies() != 2 {
		t.Fatal("AddSpecies on clone changed original")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

// TestValidateAllocs pins Validate at zero allocations: sim.Run and
// sim.RunMany validate the network on every call, so a per-reaction copy
// of the terms would dominate a short run's allocation count.
func TestValidateAllocs(t *testing.T) {
	n := NewNetwork()
	n.R("bind", map[string]int{"A": 1, "B": 1}, map[string]int{"C": 1}, Fast)
	n.R("split", map[string]int{"C": 1}, map[string]int{"A": 1, "B": 1}, Slow)
	n.R("dimer", map[string]int{"A": 2}, map[string]int{"D": 1}, Slow)
	allocs := testing.AllocsPerRun(100, func() {
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Validate: %.0f allocs, want 0", allocs)
	}
}

func TestScaleMult(t *testing.T) {
	n := NewNetwork()
	n.R("a", map[string]int{"X": 1}, map[string]int{"Y": 1}, Fast)
	if err := n.ScaleMult(0, 2.5); err != nil {
		t.Fatal(err)
	}
	if got := n.Reaction(0).Mult; got != 2.5 {
		t.Fatalf("Mult = %g", got)
	}
	if err := n.ScaleMult(0, 0); err == nil {
		t.Fatal("zero scale accepted")
	}
}

func TestParseBasic(t *testing.T) {
	src := `
# the companion abstract's absence indicator generators
init X = 1.0
init B0 = 0.25
-> r : slow
r + X -> X : fast
b + R1 -> G1 : slow
2 G1 -> IG1 : slow
IG1 -> 2 G1 : fast
A + B -> : fast 2.5
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.InitOf("X") != 1.0 || n.InitOf("B0") != 0.25 {
		t.Fatal("init values not parsed")
	}
	if n.NumReactions() != 6 {
		t.Fatalf("NumReactions = %d, want 6", n.NumReactions())
	}
	r0 := n.Reaction(0)
	if len(r0.Reactants) != 0 || r0.Cat != Slow {
		t.Fatalf("zero-order source mis-parsed: %+v", r0)
	}
	r5 := n.Reaction(5)
	if len(r5.Products) != 0 || r5.Mult != 2.5 || r5.Cat != Fast {
		t.Fatalf("sink with multiplier mis-parsed: %+v", r5)
	}
	dimer := n.Reaction(3)
	if dimer.Reactants[0].Coeff != 2 {
		t.Fatalf("coefficient 2 not parsed: %+v", dimer)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"X -> Y",            // missing category
		"X -> Y : medium",   // unknown category
		"X -> Y : fast 0",   // zero multiplier
		"X -> Y : fast 1 2", // trailing token
		"X Y -> Z : fast",   // malformed term (no '+')
		"-1 X -> Y : fast",  // negative coefficient
		"init X 1.0",        // missing '='
		"init X = abc",      // bad number
		"init  = 1.0",       // missing name
		"X + -> Y : slow",   // empty term
		"-> : slow",         // empty reaction
		"species ",          // empty species decl
		"0 X -> Y : fast",   // zero coefficient
		"X -> Y : fast -2",  // negative multiplier
		"init X = -1",       // negative init
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) accepted invalid input", src)
		}
	}
}

func TestParseSpeciesDecl(t *testing.T) {
	n, err := ParseString("species Q\ninit Q = 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.SpeciesIndex("Q"); !ok {
		t.Fatal("species declaration ignored")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	src := `init X = 1.25
-> r : slow
b + R1 -> G1 : slow
2 G1 -> IG1 : slow 0.5
IG1 + R1 -> 2 G1 + G1 : fast
X -> : fast
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := ParseString(n.String())
	if err != nil {
		t.Fatalf("re-parse of String() output failed: %v\n%s", err, n.String())
	}
	if n2.NumReactions() != n.NumReactions() || n2.NumSpecies() != n.NumSpecies() {
		t.Fatalf("round trip changed shape: %d/%d species, %d/%d reactions",
			n.NumSpecies(), n2.NumSpecies(), n.NumReactions(), n2.NumReactions())
	}
	for i := 0; i < n.NumReactions(); i++ {
		if n.FormatReaction(i) != n2.FormatReaction(i) {
			t.Fatalf("reaction %d differs after round trip: %q vs %q",
				i, n.FormatReaction(i), n2.FormatReaction(i))
		}
	}
}

// randomNetwork builds a structurally valid random network for property
// tests.
func randomNetwork(rng *rand.Rand) *Network {
	n := NewNetwork()
	nsp := 1 + rng.Intn(8)
	names := make([]string, nsp)
	for i := range names {
		names[i] = "S" + string(rune('A'+i))
		n.AddSpecies(names[i])
		if rng.Intn(2) == 0 {
			_ = n.SetInit(names[i], float64(rng.Intn(8))/2)
		}
	}
	nrx := 1 + rng.Intn(10)
	for i := 0; i < nrx; i++ {
		re := map[string]int{}
		pr := map[string]int{}
		for k := 0; k < rng.Intn(3); k++ {
			re[names[rng.Intn(nsp)]] += 1 + rng.Intn(2)
		}
		for k := 0; k < rng.Intn(3); k++ {
			pr[names[rng.Intn(nsp)]] += 1 + rng.Intn(2)
		}
		if len(re) == 0 && len(pr) == 0 {
			pr[names[0]] = 1
		}
		cat := Slow
		if rng.Intn(2) == 0 {
			cat = Fast
		}
		mult := 1.0
		if rng.Intn(3) == 0 {
			mult = float64(1+rng.Intn(40)) / 8
		}
		n.MustAddReaction("", re, pr, cat, mult)
	}
	return n
}

// Property: serializing any valid network and re-parsing it yields a network
// with identical species, inits and reactions.
func TestQuickRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng)
		n2, err := ParseString(n.String())
		if err != nil {
			t.Logf("seed %d: re-parse error: %v", seed, err)
			return false
		}
		if n2.NumReactions() != n.NumReactions() {
			return false
		}
		for _, name := range n.SpeciesNames() {
			if n.InitOf(name) != n2.InitOf(name) {
				return false
			}
		}
		for i := 0; i < n.NumReactions(); i++ {
			a, b := n.Reaction(i), n2.Reaction(i)
			if a.Cat != b.Cat || a.Mult != b.Mult || a.Order() != b.Order() {
				return false
			}
			// Compare rendered forms (species indices may differ).
			if n.FormatReaction(i) != n2.FormatReaction(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: StoichVector of every reaction in a random network moves exactly
// the declared coefficients.
func TestQuickStoichConsistency(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng)
		for i := 0; i < n.NumReactions(); i++ {
			sv := n.StoichVector(i)
			r := n.Reaction(i)
			want := make([]float64, n.NumSpecies())
			for _, tm := range r.Reactants {
				want[tm.Species] -= float64(tm.Coeff)
			}
			for _, tm := range r.Products {
				want[tm.Species] += float64(tm.Coeff)
			}
			for j := range sv {
				if sv[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParseTrailingComment(t *testing.T) {
	n, err := ParseString("X -> Y : fast # catalytic cleanup\n")
	if err != nil {
		t.Fatal(err)
	}
	if n.NumReactions() != 1 {
		t.Fatalf("NumReactions = %d", n.NumReactions())
	}
}

func TestFormatZeroOrder(t *testing.T) {
	n := NewNetwork()
	n.R("gen", nil, map[string]int{"r": 1}, Slow)
	got := n.FormatReaction(0)
	if !strings.Contains(got, "-> r") || !strings.Contains(got, "slow") {
		t.Fatalf("FormatReaction = %q", got)
	}
}
