package digest

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refSketch is the map-backed sketch the dense store replaced, kept as
// the reference the differential test diffs against. Its only change
// from that code is the +Inf key clamp, so the two agree on every input.
type refSketch struct {
	alpha, gamma, invLnGam float64

	buckets map[int32]uint64
	zero    uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

func newRef(alpha float64) *refSketch {
	gamma := (1 + alpha) / (1 - alpha)
	return &refSketch{
		alpha:    alpha,
		gamma:    gamma,
		invLnGam: 1 / math.Log(gamma),
		buckets:  make(map[int32]uint64),
		min:      math.Inf(1),
		max:      math.Inf(-1),
	}
}

func (s *refSketch) key(v float64) int32 {
	if v > math.MaxFloat64 {
		v = math.MaxFloat64
	}
	return int32(math.Ceil(math.Log(v) * s.invLnGam))
}

func (s *refSketch) value(k int32) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

func (s *refSketch) AddN(v float64, n uint64) {
	if n == 0 || math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	if v < 1 {
		s.zero += n
	} else {
		s.buckets[s.key(v)] += n
	}
	s.count += n
	s.sum += v * float64(n)
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

func (s *refSketch) Quantile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(s.count)))
	if rank == 0 {
		rank = 1
	}
	var out float64
	if rank <= s.zero {
		out = 0
	} else {
		cum := s.zero
		out = s.max
		for _, k := range s.sortedKeys() {
			cum += s.buckets[k]
			if cum >= rank {
				out = s.value(k)
				break
			}
		}
	}
	if out < s.min {
		out = s.min
	}
	if out > s.max {
		out = s.max
	}
	return out
}

func (s *refSketch) CountAbove(v float64) uint64 {
	if v <= 0 {
		return s.count
	}
	var n uint64
	for k, c := range s.buckets {
		if s.value(k) >= v {
			n += c
		}
	}
	return n
}

func (s *refSketch) sortedKeys() []int32 {
	keys := make([]int32, 0, len(s.buckets))
	for k := range s.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func (s *refSketch) Merge(other *refSketch) {
	if other.count == 0 {
		return
	}
	for k, n := range other.buckets {
		s.buckets[k] += n
	}
	s.zero += other.zero
	s.count += other.count
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

func (s *refSketch) Clone() *refSketch {
	c := *s
	c.buckets = make(map[int32]uint64, len(s.buckets))
	for k, n := range s.buckets {
		c.buckets[k] = n
	}
	return &c
}

func (s *refSketch) Reset() {
	s.buckets = make(map[int32]uint64)
	s.zero, s.count, s.sum = 0, 0, 0
	s.min, s.max = math.Inf(1), math.Inf(-1)
}

func (s *refSketch) MarshalBinary() []byte {
	buf := append([]byte(nil), magic...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.alpha))
	buf = binary.AppendUvarint(buf, s.zero)
	buf = binary.AppendUvarint(buf, s.count)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.sum))
	if s.count > 0 {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.max))
	}
	keys := s.sortedKeys()
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	prev := int64(0)
	for _, k := range keys {
		buf = binary.AppendVarint(buf, int64(k)-prev)
		buf = binary.AppendUvarint(buf, s.buckets[k])
		prev = int64(k)
	}
	return buf
}

// nonEmptyBuckets counts the sketch's non-empty log buckets.
func nonEmptyBuckets(s *Sketch) int {
	n := 0
	for _, c := range s.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// pair is one sketch under test and its reference, fed identically.
type pair struct {
	s   *Sketch
	ref *refSketch
}

func (p pair) addN(v float64, n uint64) {
	if n == 1 {
		p.s.Add(v)
	} else {
		p.s.AddN(v, n)
	}
	p.ref.AddN(v, n)
}

// diffValue draws one observation from a mix that covers every branch
// of AddN and, when wide, both ends of the key range (a span of up to
// ~71k buckets, which every quantile walk crosses).
func diffValue(r *rand.Rand, wide bool) float64 {
	c := r.Intn(12)
	if !wide && (c == 3 || c == 4) {
		c = 7
	}
	switch c {
	case 0:
		return 0
	case 1:
		return -r.Float64() * 1e3
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1)
	case 4:
		return []float64{1e300, math.MaxFloat64, 1e30, float64(math.MaxInt64)}[r.Intn(4)]
	case 5:
		return r.Float64() // sub-millisecond
	case 6:
		return 1
	case 7:
		return float64(r.Intn(100))
	default:
		return math.Round(math.Exp(r.NormFloat64()*2 + 6))
	}
}

var diffPs = []float64{-1, 0, 1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1, 2}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkPair requires the sketch to answer every query exactly as the
// reference does, and to encode to the same bytes.
func checkPair(t *testing.T, what string, p pair) {
	t.Helper()
	s, ref := p.s, p.ref
	if s.Count() != ref.count || !sameFloat(s.Sum(), ref.sum) {
		t.Fatalf("%s: count/sum %d/%v, reference %d/%v", what, s.Count(), s.Sum(), ref.count, ref.sum)
	}
	if ref.count > 0 && (!sameFloat(s.Min(), ref.min) || !sameFloat(s.Max(), ref.max)) {
		t.Fatalf("%s: min/max %v/%v, reference %v/%v", what, s.Min(), s.Max(), ref.min, ref.max)
	}
	want := make([]float64, len(diffPs))
	for i, q := range diffPs {
		want[i] = ref.Quantile(q)
		if got := s.Quantile(q); !sameFloat(got, want[i]) {
			t.Fatalf("%s: Quantile(%v) = %v, reference %v", what, q, got, want[i])
		}
	}
	got := make([]float64, len(diffPs))
	s.Quantiles(diffPs, got)
	if !slices.EqualFunc(got, want, sameFloat) {
		t.Fatalf("%s: Quantiles = %v, reference %v", what, got, want)
	}
	// Out of order: each rank below its predecessor restarts the walk.
	rev := slices.Clone(diffPs)
	slices.Reverse(rev)
	s.Quantiles(rev, got)
	slices.Reverse(got)
	if !slices.EqualFunc(got, want, sameFloat) {
		t.Fatalf("%s: descending Quantiles = %v, reference %v", what, got, want)
	}
	for _, v := range append([]float64{-1, 0, 0.5, 1, 1.5, 100, 1e9, 1e300, math.MaxFloat64, math.Inf(1), math.NaN()}, want...) {
		if g, w := s.CountAbove(v), ref.CountAbove(v); g != w {
			t.Fatalf("%s: CountAbove(%v) = %d, reference %d", what, v, g, w)
		}
	}
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if w := ref.MarshalBinary(); string(raw) != string(w) {
		t.Fatalf("%s: frame differs from the reference's\n got %x\nwant %x", what, raw, w)
	}
}

// TestDenseMatchesReference diffs the dense store against the map-backed
// reference over random streams merged in random groupings, through
// clones, resets and frame round-trips.
func TestDenseMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		alpha := []float64{DefaultAlpha, 0.02, 0.05, 0.005}[r.Intn(4)]
		wide := seed%4 == 0
		ps := make([]pair, 1+r.Intn(6))
		for i := range ps {
			ps[i] = pair{New(alpha), newRef(alpha)}
			for n := r.Intn(300); n > 0; n-- {
				ps[i].addN(diffValue(r, wide), []uint64{1, 1, 1, 0, 3, 1000}[r.Intn(6)])
			}
			checkPair(t, "stream", ps[i])
		}
		for len(ps) > 1 {
			i, j := r.Intn(len(ps)), r.Intn(len(ps)-1)
			if j >= i {
				j++
			}
			dst, src := ps[i], ps[j]
			switch r.Intn(3) {
			case 0: // merge a clone, then mutate the original
				c := pair{src.s.Clone(), src.ref.Clone()}
				src.addN(diffValue(r, wide), 1)
				checkPair(t, "clone", c)
				src = c
			case 1: // ship src as a frame
				raw, err := src.s.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var back Sketch
				if err := back.UnmarshalBinary(raw); err != nil {
					t.Fatalf("seed %d: decode: %v", seed, err)
				}
				src = pair{&back, src.ref}
				checkPair(t, "decoded", src)
			}
			if err := dst.s.Merge(src.s); err != nil {
				t.Fatal(err)
			}
			dst.ref.Merge(src.ref)
			checkPair(t, "merged", dst)
			ps = slices.Delete(ps, j, j+1)
		}
		last := ps[0]
		last.s.Reset()
		last.ref.Reset()
		checkPair(t, "reset", last)
		for n := r.Intn(50); n > 0; n-- {
			last.addN(diffValue(r, wide), 1)
		}
		checkPair(t, "refilled", last)
	}
}
