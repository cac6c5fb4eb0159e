package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps the root BENCHMARK.json declaration and
// what the benchmark emits in step: the same workloads, and the same metric
// names and units for both result kinds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var decl struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range decl.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", wls, workloadNames())
	}
	units := func(ms []named) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e := map[string]string{}
	b := &bench{rep: &report{}}
	for name, m := range b.endToEndMetrics(nil, nil) {
		e2e[name] = m.Unit
	}
	if got := units(decl.EndToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", got, e2e)
	}
	if got, want := units(decl.PerLayer), layerUnits(); !reflect.DeepEqual(got, want) {
		var extra, missing []string
		for k := range got {
			if _, ok := want[k]; !ok {
				extra = append(extra, k)
			}
		}
		for k := range want {
			if got[k] != want[k] {
				missing = append(missing, k)
			}
		}
		sort.Strings(extra)
		sort.Strings(missing)
		t.Errorf("per_layer: only in BENCHMARK.json %v; missing or other unit %v", extra, missing)
	}
}
