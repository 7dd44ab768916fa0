package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the harness must name the same workloads and the
// same metrics with the same units, within the limits the driver sets.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloads, " ") {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloads)
	}

	seen := map[string]bool{}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
		}
		byName := map[string]specMetric{}
		for _, m := range got {
			byName[m.Name] = m
			if seen[m.Name] {
				t.Errorf("name %s used twice", m.Name)
			}
			seen[m.Name] = true
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: name %q or unit %q outside the allowed characters", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
		}
		for _, d := range want {
			if m, ok := byName[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: harness emits %s [%s], BENCHMARK.json has %+v", kind, d.Name, d.Unit, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	var layers []metricDef
	for _, d := range perLayer {
		layers = append(layers, d.metricDef)
	}
	check("per_layer", spec.PerLayer, layers)

	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better: %+v", m)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
}

// Every workload's dry run prints exactly the metric names BENCHMARK.json
// promises for that mode, and nothing else.
func TestDryRunEmitsEveryMetric(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var buf bytes.Buffer
			out := &outcome{attempted: 1, values: map[string]float64{}}
			if err := printResult(&buf, config{workload: w, trace: traced, dry: true}, out); err != nil {
				t.Fatal(err)
			}
			var res struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(&buf)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if res.Correct == nil || res.Attempted == nil || res.Failed == nil || *res.Attempted < 1 {
				t.Errorf("%s traced=%v: result object lacks correct/attempted/failed", w, traced)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, %d promised", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s [%s] missing or in another unit", w, traced, m.Name, m.Unit)
				}
			}
		}
	}
}

// A measured run must not pass over a metric it owes in silence.
func TestResultRequiresEveryOwedMetric(t *testing.T) {
	out := &outcome{attempted: 1, values: map[string]float64{"setup_s": 1}}
	if err := printResult(&bytes.Buffer{}, config{workload: wRead}, out); err == nil {
		t.Error("end-to-end result printed with metrics missing")
	}
	// A traced run owes only its own workload's layers; the rest read 0.
	out = &outcome{attempted: 1, values: map[string]float64{}}
	for _, d := range perLayer {
		if d.Workload == wRestart || d.Workload == "" {
			out.values[d.Name] = 2
		}
	}
	var buf bytes.Buffer
	if err := printResult(&buf, config{workload: wRestart, trace: true}, out); err != nil {
		t.Fatalf("restart traced result: %v", err)
	}
	if !strings.Contains(buf.String(), `"wal.fsync_us":{"value":0,`) {
		t.Errorf("off-path layer metric does not read 0: %s", buf.String())
	}
	delete(out.values, "ann.graph_load_ms")
	if err := printResult(&bytes.Buffer{}, config{workload: wRestart, trace: true}, out); err == nil {
		t.Error("traced result printed with one of its own layer metrics missing")
	}
}

func TestCommandStaysInsidePaths(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(b))
	}
	if len(raw.Paths) != 1 || raw.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", raw.Paths)
	}
	for _, arg := range raw.Command[1:] {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") || (strings.Contains(arg, "/") && !strings.HasPrefix(arg, "bench/")) {
			t.Errorf("command argument %q leaves the benchmark's paths", arg)
		}
	}
	for _, w := range raw.Workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %s: why of %d characters", w.Name, len(w.Why))
		}
	}
}
