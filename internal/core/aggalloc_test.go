//go:build !race

package core

import "testing"

// TestBreakdownRowsAlloc: an /aggregate read allocates the row slice and
// nothing per cell, so its allocation count does not grow with the key
// count. Excluded under -race, whose instrumentation perturbs the counts.
func TestBreakdownRowsAlloc(t *testing.T) {
	small, large := syntheticBreakdown(40), syntheticBreakdown(400)
	a := testing.AllocsPerRun(20, func() { rowsSink = small.Rows() })
	b := testing.AllocsPerRun(20, func() { rowsSink = large.Rows() })
	if a != b || b > 2 {
		t.Errorf("Rows() allocations: %v at 40 keys, %v at 400; want equal and <= 2", a, b)
	}
}
