package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLevels are the percentiles a timing's tail is reported at, highest
// first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// describe renders a timing as its median and the highest percentile
// that has at least ten samples beyond it, with the sample count.
func describe(xs []float64) string {
	n := len(xs)
	out := fmt.Sprintf("median %.4g (n=%d, min %.4g, max %.4g", median(xs), n, quantile(xs, 0), quantile(xs, 1))
	for _, q := range tailLevels {
		if float64(n)*(1-q) >= 10-1e-9 {
			return out + fmt.Sprintf(", p%g %.4g)", q*100, quantile(xs, q))
		}
	}
	return out + ", too few samples for a tail percentile)"
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}
