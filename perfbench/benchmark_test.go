package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// BENCHMARK.json must declare exactly the per-layer metrics a traced run
// prints, with the same units.
func TestBenchmarkJSONDeclaresEveryLayer(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = m.Unit
	}
	var missing, extra []string
	for n, u := range layerUnits {
		if d, ok := declared[n]; !ok {
			missing = append(missing, n)
		} else if d != u {
			t.Errorf("%s: declared unit %q, printed %q", n, d, u)
		}
	}
	for n := range declared {
		if _, ok := layerUnits[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Errorf("undeclared: %v; declared but never printed: %v", missing, extra)
	}
}
