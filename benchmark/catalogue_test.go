package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is the contract later PRs are judged by; the program
// prints from catalogue.go. The two must name the same workloads and
// metrics with the same units, directions and bounds.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json") // TestMain moved to the checkout root
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %+v", i, doc.Workloads[i], w)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the catalogue", kind, i, g.Name, g.Unit, w.name, w.unit)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
				t.Errorf("%s: name %q or unit %q outside the contract's alphabet", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("%s: name %q used twice", kind, g.Name)
			}
			seen[g.Name] = true
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, g.Name, g.Better)
			}
			if bounded {
				if g.Bound == nil || *g.Bound != w.bound || g.Better != w.better {
					t.Errorf("%s %s: bound/direction differ from the catalogue's %v %s", kind, g.Name, w.bound, w.better)
				}
				if w.bound <= 0 || w.bound > 0.25 {
					t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, g.Name, w.bound)
				}
			} else if g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s [s], lower is better")
	}
}
