//go:build !race

package digest

import "testing"

// Allocation pins for the read path every /aggregate poll runs; excluded
// under -race because the detector's instrumentation perturbs the counts.

var sinkF float64

// TestQuantileZeroAlloc: a quantile read walks the dense counts in
// place, with no key copy and no sort.
func TestQuantileZeroAlloc(t *testing.T) {
	s := New(DefaultAlpha)
	for _, v := range benchValues(10_000) {
		s.Add(v)
	}
	s.Add(0)
	ps := []float64{0.5, 0.95, 0.99}
	out := make([]float64, len(ps))
	for name, f := range map[string]func(){
		"Quantile":   func() { sinkF = s.Quantile(0.99) },
		"Quantiles":  func() { s.Quantiles(ps, out) },
		"CountAbove": func() { sinkF = float64(s.CountAbove(100)) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}
