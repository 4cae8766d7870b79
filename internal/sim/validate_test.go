package sim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// fieldsOf returns the invalid field names reported by Validate.
func fieldsOf(t *testing.T, err error) []string {
	t.Helper()
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *ConfigError", err, err)
	}
	var names []string
	for _, f := range ce.Fields {
		names = append(names, f.Field)
	}
	return names
}

func TestConfigValidate(t *testing.T) {
	// The canonical zero-default configs of each method are valid.
	for _, cfg := range []Config{
		{TEnd: 10},
		{Method: SSA, TEnd: 10, Unit: 100},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}

	cases := []struct {
		name   string
		cfg    Config
		fields []string
	}{
		{"unknown method", Config{Method: Method(99), TEnd: 1}, []string{"Method"}},
		{"zero tend", Config{}, []string{"TEnd"}},
		{"nan tend", Config{TEnd: math.NaN()}, []string{"TEnd"}},
		{"inf tend", Config{TEnd: math.Inf(1)}, []string{"TEnd"}},
		{"inverted rates", Config{TEnd: 1, Rates: Rates{Fast: 1, Slow: 5}}, []string{"Rates"}},
		{"negative sampling", Config{TEnd: 1, SampleEvery: -1}, []string{"SampleEvery"}},
		{"trace rows over the bound", Config{TEnd: 1e6, SampleEvery: 1e-10}, []string{"SampleEvery"}},
		{"ssa without unit", Config{Method: SSA, TEnd: 1}, []string{"Unit"}},
		{"negative firings cap", Config{TEnd: 1, MaxFirings: -1}, []string{"MaxFirings"}},
		{"several at once", Config{Method: SSA, TEnd: -3, MaxFirings: -1}, []string{"TEnd", "Unit", "MaxFirings"}},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		got := fieldsOf(t, err)
		if len(got) != len(tc.fields) {
			t.Errorf("%s: fields %v, want %v", tc.name, got, tc.fields)
			continue
		}
		for i := range got {
			if got[i] != tc.fields[i] {
				t.Errorf("%s: fields %v, want %v", tc.name, got, tc.fields)
				break
			}
		}
	}
}

// TestConfigErrorMessage pins the aggregate rendering: every invalid field
// appears in one message, semicolon-separated.
func TestConfigErrorMessage(t *testing.T) {
	err := Config{Method: SSA, TEnd: -3, MaxFirings: -1}.Validate()
	msg := err.Error()
	for _, want := range []string{"sim: invalid config", "TEnd:", "Unit:", "MaxFirings:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
	if strings.Count(msg, ";") != 2 {
		t.Errorf("message %q: want 2 separators", msg)
	}
}

// TestRunRejectsInvalidConfig asserts Run routes through Validate and
// surfaces the structured error.
func TestRunRejectsInvalidConfig(t *testing.T) {
	n := chainNet(t, 4)
	var ce *ConfigError
	_, err := Run(context.Background(), n, Config{Method: SSA, TEnd: 1})
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ConfigError", err)
	}
	if len(ce.Fields) != 1 || ce.Fields[0].Field != "Unit" {
		t.Fatalf("fields = %+v, want one Unit error", ce.Fields)
	}
}

// TestRunBoundsTrace pins MaxTraceCells where the network is known: a grid
// whose rows pass Validate but whose rows × species exceed the bound is a
// *ConfigError from Run and RunMany before anything is allocated, and the
// largest grid under the bound still validates.
func TestRunBoundsTrace(t *testing.T) {
	n := chainNet(t, 4) // 6 species
	cfg := Config{TEnd: MaxTraceCells / 2, SampleEvery: 1}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate = %v, want nil: the rows alone are under the bound", err)
	}
	if got := fieldsOf(t, Config{TEnd: MaxTraceCells, SampleEvery: 1}.Validate()); len(got) != 1 || got[0] != "SampleEvery" {
		t.Fatalf("rows just over the bound: fields %v, want [SampleEvery]", got)
	}
	_, err := Run(context.Background(), n, cfg)
	if got := fieldsOf(t, err); len(got) != 1 || got[0] != "SampleEvery" {
		t.Fatalf("Run: fields %v, want [SampleEvery]", got)
	}
	ssa := cfg
	ssa.Method, ssa.Unit = SSA, 10
	_, err = RunMany(context.Background(), n, BatchConfig{Base: ssa, Runs: 2, FinalsOnly: true})
	if got := fieldsOf(t, err); len(got) != 1 || got[0] != "SampleEvery" {
		t.Fatalf("RunMany: fields %v, want [SampleEvery]", got)
	}
}
