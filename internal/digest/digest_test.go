package digest

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// exactQuantile is the nearest-rank quantile of a sorted slice.
func exactQuantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// checkBound asserts the sketch's documented bound: the reported
// quantile is within alpha (relative) of the exact nearest-rank value.
func checkBound(t *testing.T, s *Sketch, sorted []float64, p float64) {
	t.Helper()
	got := s.Quantile(p)
	want := exactQuantile(sorted, p)
	if want < 1 {
		// Sub-millisecond values collapse into the zero bucket; the
		// guarantee there is absolute: the report is also < 1.
		if got >= 1 {
			t.Errorf("p%.0f: got %v for exact %v (< 1 must stay < 1)", p*100, got, want)
		}
		return
	}
	if rel := math.Abs(got-want) / want; rel > s.Alpha()+1e-9 {
		t.Errorf("p%.0f: got %v, exact %v, relative error %.4f > alpha %v",
			p*100, got, want, rel, s.Alpha())
	}
}

func TestQuantileAccuracy(t *testing.T) {
	for _, dist := range []struct {
		name string
		gen  func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 10_000 }},
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()*2 + 5) }},
		{"heavy-tail", func(r *rand.Rand) float64 { return math.Pow(1/(1-r.Float64()), 1.5) }},
	} {
		t.Run(dist.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			s := New(DefaultAlpha)
			vals := make([]float64, 0, 20_000)
			for i := 0; i < 20_000; i++ {
				v := dist.gen(r)
				s.Add(v)
				vals = append(vals, v)
			}
			sort.Float64s(vals)
			for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
				checkBound(t, s, vals, p)
			}
			if s.Count() != 20_000 {
				t.Errorf("count=%d", s.Count())
			}
			if got, want := s.Min(), vals[0]; got != want {
				t.Errorf("min=%v want %v", got, want)
			}
			if got, want := s.Max(), vals[len(vals)-1]; got != want {
				t.Errorf("max=%v want %v", got, want)
			}
			wantSum := 0.0
			for _, v := range vals {
				wantSum += v
			}
			if math.Abs(s.Sum()-wantSum)/wantSum > 1e-9 {
				t.Errorf("sum=%v want %v", s.Sum(), wantSum)
			}
		})
	}
}

// TestMergeEquivalence is the sharding guarantee: merging per-shard
// sketches must be byte-identical to sketching the whole stream, so the
// merged quantiles carry the same error bound as whole-run ones.
func TestMergeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	whole := New(DefaultAlpha)
	shards := make([]*Sketch, 4)
	for i := range shards {
		shards[i] = New(DefaultAlpha)
	}
	var vals []float64
	for i := 0; i < 10_000; i++ {
		v := math.Exp(r.NormFloat64() + 4)
		whole.Add(v)
		shards[i%len(shards)].Add(v)
		vals = append(vals, v)
	}
	merged := New(DefaultAlpha)
	for _, sh := range shards {
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != whole.Count() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged scalar state differs from whole-run state")
	}
	// Sums accumulate in different orders across shards; only the float
	// rounding may differ.
	if math.Abs(merged.Sum()-whole.Sum())/whole.Sum() > 1e-12 {
		t.Fatalf("merged sum %v vs whole %v", merged.Sum(), whole.Sum())
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if m, w := merged.Quantile(p), whole.Quantile(p); m != w {
			t.Errorf("p%.0f: merged %v != whole %v (merge must be exact)", p*100, m, w)
		}
		checkBound(t, merged, vals, p)
	}
}

func TestMergeAlphaMismatch(t *testing.T) {
	a, b := New(0.01), New(0.02)
	b.Add(5)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging different alphas must fail")
	}
	if err := a.Merge(New(0.02)); err != nil {
		t.Fatalf("merging an EMPTY mismatched sketch is harmless, got %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

func TestZeroAndNegative(t *testing.T) {
	s := New(DefaultAlpha)
	s.Add(-5) // degraded input: clamped, not panicking
	s.Add(0)
	s.Add(0.4)
	s.Add(100)
	if s.Count() != 4 {
		t.Fatalf("count=%d", s.Count())
	}
	if q := s.Quantile(0.5); q >= 1 {
		t.Errorf("p50=%v, want sub-millisecond", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("p100=%v, want exactly max=100", q)
	}
	if s.Min() != 0 {
		t.Errorf("min=%v, want 0 (clamped)", s.Min())
	}
}

func TestEmptySketch(t *testing.T) {
	s := New(DefaultAlpha)
	if s.Quantile(0.5) != 0 || s.Count() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Errorf("empty sketch must read as zeros")
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := New(DefaultAlpha)
	for i := 0; i < 5_000; i++ {
		s.Add(math.Exp(r.NormFloat64()*1.5 + 3))
	}
	s.Add(0) // exercise the zero bucket
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Compactness: delta-encoded buckets should stay near 2-3 bytes each.
	if len(raw) > 32+6*1000 {
		t.Errorf("encoding is %d bytes for ~%d buckets — not compact", len(raw), nonEmptyBuckets(s))
	}
	var back Sketch
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if back.Count() != s.Count() || back.Sum() != s.Sum() ||
		back.Min() != s.Min() || back.Max() != s.Max() || back.Alpha() != s.Alpha() {
		t.Fatalf("scalar state did not survive the roundtrip")
	}
	for _, p := range []float64{0.01, 0.5, 0.95, 0.99} {
		if a, b := s.Quantile(p), back.Quantile(p); a != b {
			t.Errorf("p%.0f: %v != %v after roundtrip", p*100, a, b)
		}
	}
	// A decoded sketch must merge back into a live one.
	if err := s.Merge(&back); err != nil {
		t.Fatal(err)
	}

	roundtripEmpty := New(0.05)
	raw, err = roundtripEmpty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var e Sketch
	if err := e.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 0 || e.Alpha() != 0.05 {
		t.Errorf("empty roundtrip: count=%d alpha=%v", e.Count(), e.Alpha())
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	s := New(DefaultAlpha)
	s.Add(12)
	s.Add(7000)
	raw, _ := s.MarshalBinary()
	var back Sketch
	for _, bad := range [][]byte{
		nil,
		[]byte("x"),
		[]byte("bad frame entirely"),
		raw[:len(raw)-1],
		raw[:5],
		append([]byte("zz1"), raw[3:]...),
	} {
		if err := back.UnmarshalBinary(bad); err == nil {
			t.Errorf("corrupt frame %q decoded without error", bad)
		}
	}
}

func TestCloneAndReset(t *testing.T) {
	s := New(DefaultAlpha)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	c := s.Clone()
	s.Add(1e6) // must not leak into the clone
	if c.Max() == s.Max() {
		t.Error("clone shares state with original")
	}
	s.Reset()
	if s.Count() != 0 || s.Quantile(0.5) != 0 {
		t.Error("reset did not empty the sketch")
	}
	if c.Count() != 100 {
		t.Error("reset leaked into clone")
	}
}

func TestAddN(t *testing.T) {
	a, b := New(DefaultAlpha), New(DefaultAlpha)
	for i := 0; i < 10; i++ {
		a.Add(250)
	}
	b.AddN(250, 10)
	b.AddN(99, 0) // no-op
	if a.Quantile(0.5) != b.Quantile(0.5) || a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Errorf("AddN(v,10) differs from 10x Add(v)")
	}
}

// TestInfLandsInTopBucket: +Inf counts in the top finite bucket, so the
// quantiles and the tail count see it as Max does. (Its key used to be
// int32(Ceil(+Inf)), MinInt32 on amd64, which hid it below every value.)
func TestInfLandsInTopBucket(t *testing.T) {
	s := New(DefaultAlpha)
	s.AddN(5, 10)
	s.Add(math.Inf(1))
	if got := s.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("Quantile(1) = %v, want +Inf (= Max %v)", got, s.Max())
	}
	if got := s.CountAbove(100); got != 1 {
		t.Errorf("CountAbove(100) = %d, want 1", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-5) > 5*s.Alpha() {
		t.Errorf("Quantile(0.5) = %v, want 5 within alpha", got)
	}
	if k := s.key(math.Inf(1)); k != s.maxKey || k <= 0 {
		t.Errorf("key(+Inf) = %d, want key(MaxFloat64) = %d", k, s.maxKey)
	}
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatalf("a sketch holding +Inf must round-trip: %v", err)
	}
	if back.CountAbove(100) != 1 || !math.IsInf(back.Quantile(1), 1) {
		t.Errorf("decoded: CountAbove(100) = %d, Quantile(1) = %v", back.CountAbove(100), back.Quantile(1))
	}
}

// craftFrame encodes a sketch frame with the given alpha and one
// observation in each listed bucket key, in the order given, bypassing
// every invariant a real sketch keeps.
func craftFrame(alpha float64, keys []int64) []byte {
	buf := append([]byte(nil), magic...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(alpha))
	buf = binary.AppendUvarint(buf, 0)                 // zero
	buf = binary.AppendUvarint(buf, uint64(len(keys))) // count: one per bucket
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(len(keys))))
	if len(keys) > 0 {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(1))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(math.MaxFloat64))
	}
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	prev := int64(0)
	for _, k := range keys {
		buf = binary.AppendVarint(buf, k-prev)
		buf = binary.AppendUvarint(buf, 1)
		prev = k
	}
	return buf
}

// decodeAlloc decodes raw and reports the error and the bytes the
// decode allocated.
func decodeAlloc(raw []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var s Sketch
	err := s.UnmarshalBinary(raw)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestUnmarshalHostileKeys: a frame may not name a bucket the sketch
// could never hold, so it cannot make the dense store allocate a span
// of gigabytes. The widest legal frame stays within the documented
// bound of key(MaxFloat64)+1 buckets.
func TestUnmarshalHostileKeys(t *testing.T) {
	top := int64(New(DefaultAlpha).maxKey)
	for _, tc := range []struct {
		name  string
		alpha float64
		keys  []int64
	}{
		{"negative key", DefaultAlpha, []int64{-1}},
		{"MaxInt32 key", DefaultAlpha, []int64{math.MaxInt32}},
		{"far-apart keys", DefaultAlpha, []int64{0, 1 << 30}},
		{"just past the top bucket", DefaultAlpha, []int64{0, top + 1}},
		{"repeated key", DefaultAlpha, []int64{7, 7}},
		{"descending keys", DefaultAlpha, []int64{9, 8}},
		{"alpha below the floor", minAlpha / 10, []int64{0, 1 << 30}},
	} {
		alloc, err := decodeAlloc(craftFrame(tc.alpha, tc.keys))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
		if alloc > 64<<10 {
			t.Errorf("%s: decoding allocated %d bytes", tc.name, alloc)
		}
	}
	alloc, err := decodeAlloc(craftFrame(DefaultAlpha, []int64{0, top}))
	if err != nil {
		t.Fatalf("keys 0 and key(MaxFloat64) are legal: %v", err)
	}
	if limit := uint64(top+1) * 8 * 2; alloc > limit {
		t.Errorf("widest legal frame allocated %d bytes, over %d", alloc, limit)
	}
}
