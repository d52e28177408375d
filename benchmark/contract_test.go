package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestContractMatchesProgram keeps BENCHMARK.json and the program's own
// metric and workload lists from drifting apart.
func TestContractMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			metricSpec
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", c.Paths)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var own []string
	for _, w := range workloads {
		own = append(own, w.name)
	}
	if !slices.Equal(names, own) {
		t.Errorf("workloads: contract %v, program %v", names, own)
	}
	var e2e []metricSpec
	setup := false
	for _, m := range c.EndToEnd {
		e2e = append(e2e, m.metricSpec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.metricSpec == metricSpec{"setup_s", "s", "lower"}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end:\ncontract %v\nprogram  %v", e2e, endToEnd)
	}
	if !slices.Equal(c.PerLayer, perLayer) {
		t.Errorf("per_layer:\ncontract %v\nprogram  %v", c.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}
