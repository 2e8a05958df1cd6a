package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFile checks BENCHMARK.json against the metric tables: the
// same metrics with the same units, directions and bounds, well-formed
// names, and the limits on counts and bounds.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(keys), want)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %q: unknown or without a why", w.Name)
		}
	}
	if !reflect.DeepEqual(names, allWorkloads) {
		t.Errorf("workloads %v, want %v", names, allWorkloads)
	}

	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d defined (at most 16)", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, defined %s %s %s %g", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d defined (at most 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, defined %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if d.Layer != "" && (d.Moves == "" || len(d.On) == 0) {
			t.Errorf("%s: a layer metric needs the workloads it is measured on and what it should move", d.Name)
		}
	}
	if d, ok := lookupMetric("setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// runResult runs one workload in-process at the shortest length and
// parses its result line.
func runResult(t *testing.T, name string, traced bool) resultLine {
	t.Helper()
	rep, err := workloads[name](config{seed: 3, seconds: 1, trace: traced})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line, err := rep.result(defs)
	if err != nil {
		t.Fatal(err)
	}
	var out resultLine
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
		t.Fatalf("%s (traced %v): correct %v, attempted %d, failed %d: %v", name, traced, out.Correct, out.Attempted, out.Failed, rep.mismatches)
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or without its unit", name, d.Name)
		}
		if d.Layer == "" && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.Name, m.Value)
		}
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d defined", name, len(out.Metrics), len(defs))
	}
	return out
}

// TestWorkloads runs every workload untraced once and traced twice with
// the same seed: each emits its full metric set with units and passes its
// output checks, and every count marked exact repeats exactly.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, name := range allWorkloads {
		t.Run(name, func(t *testing.T) {
			runResult(t, name, false)
			first, second := runResult(t, name, true), runResult(t, name, true)
			for _, d := range perLayer {
				for _, w := range d.Exact {
					if w != name {
						continue
					}
					if a, b := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value; a != b {
						t.Errorf("%s on %s is marked exact but read %v then %v", d.Name, name, a, b)
					}
				}
			}
		})
	}
}
