package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs w shrunk to a handful of apps and two measured seconds.
func runTiny(t *testing.T, w workload, trace, corrupt bool) (*result, string) {
	t.Helper()
	w.apps, w.liveApps = 6, 6
	if w.executors >= 64 {
		w.liveApps = 3
	}
	var log bytes.Buffer
	res, err := run(config{w: w, seed: 7, seconds: 2, trace: trace, workdir: t.TempDir(),
		corrupt: corrupt, log: &log})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	return res, log.String()
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if _, ok := findWorkload(sw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", sw.Name)
		}
	}
}

// TestEveryMetricPrintsWithItsUnit runs every workload untraced and
// traced at a tiny size: each must pass its output gate with no failed
// op and print exactly the metrics BENCHMARK.json names, with their
// units, both in the JSON result and on the human-readable table.
func TestEveryMetricPrintsWithItsUnit(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, log := runTiny(t, w, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			out, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(out, &back); err != nil {
				t.Fatal(err)
			}
			if len(back.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(back.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := back.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, m.Name, got.Value)
				}
				if !tableHas(log, m.Name, m.Unit) {
					t.Errorf("%s trace=%v: no table line for %s in %s", w.name, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

func tableHas(log, name, unit string) bool {
	for _, line := range strings.Split(log, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// TestGateCatchesCorruptedTree drops one vocabulary line after the
// reference digest is taken: every workload must report failed ops and
// incorrect outputs, offline and live.
func TestGateCatchesCorruptedTree(t *testing.T) {
	for _, w := range workloads {
		res, _ := runTiny(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted tree passed the gate: correct=%v failed=%d of %d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		// Each offline mine and the live engine's final report diverge.
		if res.Failed < 3 {
			t.Errorf("%s: only %d failed ops; want every offline mine and the live report to fail", w.name, res.Failed)
		}
	}
}

func TestQuantileAndGrowing(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !strings.Contains(describe(xs), "p99 990") {
		t.Errorf("describe(1..1000) = %q: want the p99, which has 10 samples beyond it", describe(xs))
	}
	if strings.Contains(describe(xs[:999]), "p99 ") {
		t.Errorf("describe(1..999) = %q: p99 has only 9 samples beyond it", describe(xs[:999]))
	}
	steady := []int{5, 6, 5, 5, 6, 5, 5, 6, 5, 5, 6, 5}
	rising := []int{5, 6, 5, 9, 14, 20, 28, 35, 44, 52, 61, 70}
	if growing(steady, 5) {
		t.Error("steady pending counts flagged as a backlog")
	}
	if !growing(rising, 5) {
		t.Error("rising pending counts not flagged as a backlog")
	}
}
