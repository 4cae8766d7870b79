package exper

import (
	"context"
	"fmt"
	"math"

	"repro/internal/batch"
	"repro/internal/crn"
	"repro/internal/modules"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E14",
		Title: "Combinational module library: computed vs exact (prior-work substrate)",
		Tags:  []string{TagGrid},
		Run:   runE14,
	})
}

func runE14(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:     "E14",
		Title:  "Rate-independent arithmetic modules",
		Header: []string{"module", "inputs", "exact", "computed", "abs err"},
	}
	ratio := 1000.0
	if cfg.Quick {
		ratio = 500
	}
	rates := sim.Rates{Fast: ratio, Slow: 1}

	type testCase struct {
		name   string
		inputs string
		exact  float64
		tEnd   float64
		build  func(n *crn.Network) (string, error)
	}
	cases := []testCase{
		{
			name: "add", inputs: "0.7+0.55+0.25", exact: 1.5, tEnd: 5,
			build: func(n *crn.Network) (string, error) {
				for sp, v := range map[string]float64{"A": 0.7, "B": 0.55, "C": 0.25} {
					if err := n.SetInit(sp, v); err != nil {
						return "", err
					}
				}
				return "S", modules.AddInto(n, "S", "A", "B", "C")
			},
		},
		{
			name: "scale 3/4", inputs: "1.2", exact: 0.9, tEnd: 120,
			build: func(n *crn.Network) (string, error) {
				if err := n.SetInit("X", 1.2); err != nil {
					return "", err
				}
				return "Y", modules.Scale(n, "X", "Y", 3, 4)
			},
		},
		{
			name: "subtract", inputs: "1.5-0.6", exact: 0.9, tEnd: 40,
			build: func(n *crn.Network) (string, error) {
				if err := n.SetInit("A", 1.5); err != nil {
					return "", err
				}
				if err := n.SetInit("B", 0.6); err != nil {
					return "", err
				}
				return "D", modules.Subtract(n, "sub", "A", "B", "D")
			},
		},
		{
			name: "min", inputs: "min(1.2,0.5)", exact: 0.5, tEnd: 40,
			build: func(n *crn.Network) (string, error) {
				if err := n.SetInit("A", 1.2); err != nil {
					return "", err
				}
				if err := n.SetInit("B", 0.5); err != nil {
					return "", err
				}
				return "M", modules.Min(n, "A", "B", "M")
			},
		},
		{
			name: "max", inputs: "max(1.2,0.5)", exact: 1.2, tEnd: 60,
			build: func(n *crn.Network) (string, error) {
				if err := n.SetInit("A", 1.2); err != nil {
					return "", err
				}
				if err := n.SetInit("B", 0.5); err != nil {
					return "", err
				}
				return "M", modules.Max(n, "mx", "A", "B", "M")
			},
		},
		{
			name: "compare (GT mass)", inputs: "1.5 vs 0.5", exact: 1, tEnd: 60,
			build: func(n *crn.Network) (string, error) {
				if err := n.SetInit("A", 1.5); err != nil {
					return "", err
				}
				if err := n.SetInit("B", 0.5); err != nil {
					return "", err
				}
				c, err := modules.Compare(n, "cmp", "A", "B")
				return c.GT, err
			},
		},
		{
			name: "multiply", inputs: "0.8×3", exact: 2.4, tEnd: 280,
			build: func(n *crn.Network) (string, error) {
				if err := n.SetInit("X", 0.8); err != nil {
					return "", err
				}
				if err := n.SetInit("Y", 3); err != nil {
					return "", err
				}
				_, err := modules.Multiply(n, "mul", "X", "Y", "Z")
				return "Z", err
			},
		},
	}
	if cfg.Quick {
		cases = cases[:4]
	}
	// One job per module test case; each builds its own network.
	rows, err := batch.Map(ctx, len(cases), func(ctx context.Context, i int) ([]string, error) {
		c := cases[i]
		n := crn.NewNetwork()
		out, err := c.build(n)
		if err != nil {
			return nil, fmt.Errorf("exper: E14 %s: %w", c.name, err)
		}
		tr, err := sim.Run(ctx, n, sim.Config{Rates: rates, TEnd: c.tEnd, Obs: cfg.observer()})
		if err != nil {
			return nil, fmt.Errorf("exper: E14 %s: %w", c.name, err)
		}
		got := tr.Final(out)
		return []string{
			c.name, c.inputs, f4(c.exact), f4(got), f4(math.Abs(got - c.exact)),
		}, nil
	}, cfg.batchOpts())
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.Notes = append(res.Notes,
		"these are the memoryless constructs of the group's prior work (ICCAD'10, PSB'11) that the DAC paper's datapaths assume; each is exact on quantities given only fast >> slow",
		"the multiplier is the iterative token-loop construct: its completion time is proportional to the integer multiplier Y")
	return res, nil
}
