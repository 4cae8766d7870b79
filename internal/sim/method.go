package sim

import (
	"fmt"
	"strings"
)

// Method selects the simulation algorithm of a Run. The zero value is ODE,
// so existing deterministic Config literals keep working unchanged.
type Method uint8

const (
	// ODE is deterministic mass-action integration (adaptive
	// Dormand–Prince 5(4)) — the validation method of the DAC 2011 paper.
	ODE Method = iota
	// SSA is Gillespie's exact stochastic simulation (direct method).
	SSA
)

var methodNames = [...]string{ODE: "ode", SSA: "ssa"}

// String returns the canonical lower-case name ("ode", "ssa").
func (m Method) String() string {
	if int(m) < len(methodNames) {
		return methodNames[m]
	}
	return fmt.Sprintf("method(%d)", uint8(m))
}

// Methods returns every valid method in declaration order.
func Methods() []Method { return []Method{ODE, SSA} }

// MethodNames returns the canonical method names in declaration order —
// ready for CLI usage strings.
func MethodNames() []string {
	out := make([]string, 0, len(methodNames))
	for _, m := range Methods() {
		out = append(out, m.String())
	}
	return out
}

// ParseMethod maps a user-facing method name (case-insensitive, with the
// alias "gillespie" for ssa; the empty string selects ode) to its Method.
// Unknown names produce an error listing the valid choices, so CLIs can
// surface it verbatim.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "ode":
		return ODE, nil
	case "ssa", "gillespie":
		return SSA, nil
	}
	return ODE, fmt.Errorf("sim: unknown method %q (valid methods: %s)",
		s, strings.Join(MethodNames(), ", "))
}
