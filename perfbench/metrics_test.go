package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The program must report exactly the metrics BENCHMARK.json declares,
// in the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		have []unit
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.have) != len(c.want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", c.kind, len(c.have), len(c.want))
			continue
		}
		for i, u := range c.have {
			if u.name != c.want[i].Name || u.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", c.kind, i, u.name, u.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}
