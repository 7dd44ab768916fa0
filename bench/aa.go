package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads back:
// the run length, and each end-to-end metric's direction and bound.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// returns (the exclusive method), which is what the driver computes its
// spreads from. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := max(1, min(n-1, i*(n+1)/4))
		delta := i*(n+1) - j*4 // outside [0,4] where j was clamped: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runAA is the A/A check: for every workload, two sets of k full runs of
// this same binary, interleaved ABAB… so both sets see the same drift,
// every run on its own seed. It prints, per workload and end-to-end
// metric, both sets' medians and spreads (inter-quartile distance over
// the median), the gap between the medians and the metric's bound, and
// fails if a spread (setup_s excepted, as in the driver) or a gap is
// over the bound.
func runAA(ctx context.Context, cfg config, k int) error {
	if k < 2 {
		return fmt.Errorf("-aa needs at least 2 runs per set")
	}
	spec, err := loadSpec(cfg.root)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloads
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for _, w := range names {
		for i := 0; i < 2*k; i++ {
			seed := cfg.seed + int64(i)
			cmd := exec.CommandContext(ctx, self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-root", cfg.root, "-bin", cfg.bin)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct bool `json:"correct"`
				Failed  int  `json:"failed"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct=%v failed=%d", w, seed, res.Correct, res.Failed)
			}
			fmt.Fprintf(os.Stderr, "aa %s set %c seed %d: %s\n", w, 'A'+i%2, seed, lines[len(lines)-1])
			for name, m := range res.Metrics {
				kk := key{w, name}
				sets[i%2][kk] = append(sets[i%2][kk], m.Value)
			}
		}
	}

	fmt.Printf("| workload | metric | median A | spread A | median B | spread B | gap | bound |\n|---|---|---|---|---|---|---|---|\n")
	over := 0
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][key{w, m.Name}])
			b1, b2, b3 := quartiles(sets[1][key{w, m.Name}])
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			gap := math.Abs(b2-a2) / a2
			mark := ""
			if gap > m.Bound || (m.Name != "setup_s" && math.Max(spreadA, spreadB) > m.Bound) {
				mark = " **over**"
				over++
			}
			fmt.Printf("| %s | %s | %.5g | %.1f%% | %.5g | %.1f%% | %.1f%% | %.0f%%%s |\n",
				w, m.Name, a2, 100*spreadA, b2, 100*spreadB, 100*gap, 100*m.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d workload × metric pairs over their bound", over)
	}
	return nil
}
