// Package digest implements a mergeable quantile sketch for delay
// distributions: a fixed-relative-precision, log-bucketed histogram in
// the style of DDSketch ("Computing quantiles with relative-error
// guarantees"). It is the aggregation substrate behind cluster-level
// percentile tables and SLO evaluation.
//
// Model: non-negative observations (delays in milliseconds) are counted
// into geometrically spaced buckets. Bucket i covers (gamma^(i-1),
// gamma^i] with gamma = (1+alpha)/(1-alpha); reporting the geometric
// bucket midpoint guarantees a RELATIVE error of at most alpha for every
// quantile:
//
//	|Quantile(p) - exact_p| <= alpha * exact_p
//
// Values in [0, 1) land in a dedicated zero bucket reported as 0 (a
// sub-millisecond delay is "zero" at log4j's 1 ms precision); negative
// values are clamped into it too, so degraded inputs cannot corrupt the
// sketch. Values above math.MaxFloat64 (+Inf) count in the top finite
// bucket, so every key lies in [0, key(MaxFloat64)]. Merging sketches
// of equal alpha is exact bucket-wise addition:
// Merge(a, b) yields bit-for-bit the sketch that would have resulted from
// adding both input streams to one sketch, so sharded runs can be
// combined in any order or grouping without widening the error bound.
//
// Sketches are NOT safe for concurrent use; callers that share one
// across goroutines must lock (internal/slo does).
package digest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// DefaultAlpha is the relative accuracy used across the repo: 1%
// error on any quantile, ~275 buckets per decade-spanning component.
const DefaultAlpha = 0.01

// minAlpha bounds the dense store: a sketch spans at most
// key(MaxFloat64)+1 ≈ 355/alpha buckets, 28 MB at this alpha (284 KB at
// DefaultAlpha), and smaller alphas would overflow the int32 keys.
const minAlpha = 1e-4

// Sketch is one mergeable quantile sketch. The zero value is unusable;
// call New.
type Sketch struct {
	alpha    float64
	gamma    float64
	invLnGam float64 // 1/ln(gamma), cached for Add's hot path

	maxKey int32 // key(math.MaxFloat64), the top finite bucket

	// Dense store: counts[i] is the count of bucket offset+i. Empty
	// buckets inside the span hold 0; an empty store has len 0.
	offset int32
	counts []uint64
	zero   uint64 // observations < 1 (incl. clamped negatives)
	count  uint64
	sum    float64
	min    float64
	max    float64

	// Tail-biased exemplar reservoir (see exemplar.go). exCap == 0 means
	// tracking is off and the sketch behaves exactly as before.
	exCap int
	ex    []Exemplar // sorted by exemplarLess, len <= exCap
}

// New returns an empty sketch with the given relative accuracy alpha
// (1e-4 <= alpha < 1). Use DefaultAlpha unless a caller needs a
// documented different bound.
func New(alpha float64) *Sketch {
	if !validAlpha(alpha) {
		panic(fmt.Sprintf("digest: alpha %v out of [%v,1)", alpha, minAlpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	s := &Sketch{
		alpha:    alpha,
		gamma:    gamma,
		invLnGam: 1 / math.Log(gamma),
		min:      math.Inf(1),
		max:      math.Inf(-1),
	}
	s.maxKey = s.key(math.MaxFloat64)
	return s
}

func validAlpha(alpha float64) bool { return alpha >= minAlpha && alpha < 1 }

// Alpha returns the sketch's relative accuracy.
func (s *Sketch) Alpha() float64 { return s.alpha }

// key maps a value >= 1 to its bucket index: the smallest i with
// gamma^i >= v. +Inf maps to the top finite bucket, key(MaxFloat64).
func (s *Sketch) key(v float64) int32 {
	if v > math.MaxFloat64 {
		v = math.MaxFloat64
	}
	return int32(math.Ceil(math.Log(v) * s.invLnGam))
}

// cover grows the dense store to span keys [lo, hi] (lo <= hi, both in
// [0, maxKey]), keeping every count. Growth reuses spare capacity and
// otherwise reallocates with half as much again, so a stream that keeps
// widening the span costs amortized O(1) per new bucket on the right.
func (s *Sketch) cover(lo, hi int32) {
	if len(s.counts) == 0 {
		s.offset = lo
		s.counts = resize(s.counts, int(hi-lo)+1)
		clear(s.counts)
		return
	}
	top := s.offset + int32(len(s.counts)) - 1
	lo, hi = min(lo, s.offset), max(hi, top)
	if lo == s.offset && hi == top {
		return
	}
	old := s.counts
	shift := int(s.offset - lo)
	s.counts = resize(old, int(hi-lo)+1)
	copy(s.counts[shift:], old) // memmove when the array is reused
	clear(s.counts[:shift])
	clear(s.counts[shift+len(old):])
	s.offset = lo
}

// resize returns a slice of length n, on c's array when it fits (its
// contents are then the caller's to clear) and on a fresh one otherwise.
func resize(c []uint64, n int) []uint64 {
	if n <= cap(c) {
		return c[:n]
	}
	return make([]uint64, n, n+n/2)
}

// value maps a bucket index back to the bucket's midpoint: the
// representative with relative error <= alpha for every value the bucket
// covers.
func (s *Sketch) value(k int32) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// Add records one observation.
func (s *Sketch) Add(v float64) { s.AddN(v, 1) }

// AddN records n identical observations (n == 0 is a no-op).
func (s *Sketch) AddN(v float64, n uint64) {
	if n == 0 {
		return
	}
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	if v < 1 {
		s.zero += n
	} else {
		k := s.key(v)
		s.cover(k, k)
		s.counts[k-s.offset] += n
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

// Count returns the number of observations.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the sum of all observations (exact, not bucketed).
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 on an empty sketch.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest observation (exact), or 0 on an empty sketch.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (exact), or 0 on an empty sketch.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the value at rank p in [0,1] (p50 = Quantile(0.5)),
// within relative error alpha. Out-of-range p is clamped; an empty
// sketch yields 0. The returned value is additionally clamped into
// [Min, Max], which are tracked exactly.
func (s *Sketch) Quantile(p float64) float64 {
	w := walker{cum: s.zero}
	return s.quantile(&w, p)
}

// Quantiles writes Quantile(ps[i]) into out[i] (len(out) >= len(ps)).
// Ascending ps are answered in one walk over the buckets; a p below its
// predecessor restarts the walk.
func (s *Sketch) Quantiles(ps, out []float64) {
	w := walker{cum: s.zero}
	for i, p := range ps {
		out[i] = s.quantile(&w, p)
	}
}

// walker is a position in an ascending bucket walk: cum is the zero
// bucket plus every bucket below i. Start it at walker{cum: s.zero}.
type walker struct {
	i    int
	cum  uint64
	rank uint64 // rank of the last answer
}

func (s *Sketch) quantile(w *walker, p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// Rank of the target observation, 1-based, nearest-rank definition.
	rank := uint64(math.Ceil(p * float64(s.count)))
	if rank == 0 {
		rank = 1
	}
	if rank < w.rank {
		*w = walker{cum: s.zero}
	}
	w.rank = rank
	var out float64
	if rank <= s.zero {
		out = 0
	} else {
		// cum < rank here, so an empty bucket never matches.
		out = s.max // fall through only on float accumulation quirks
		i, cum := w.i, w.cum
		for ; i < len(s.counts); i++ {
			c := cum + s.counts[i]
			if c >= rank {
				out = s.value(s.offset + int32(i))
				break
			}
			cum = c
		}
		w.i, w.cum = i, cum
	}
	if out < s.min {
		out = s.min
	}
	if out > s.max {
		out = s.max
	}
	return out
}

// CountAbove returns how many observations were recorded at or above v,
// at bucket granularity: a bucket contributes when its representative
// value is >= v, so the answer carries the same relative-error bound as
// Quantile. v <= 0 counts everything.
func (s *Sketch) CountAbove(v float64) uint64 {
	if v <= 0 {
		return s.count
	}
	// Representatives rise with the key, so walk down from the top and
	// stop at the first non-empty bucket below v.
	var n uint64
	for i := len(s.counts) - 1; i >= 0; i-- {
		c := s.counts[i]
		if c == 0 {
			continue
		}
		if !(s.value(s.offset+int32(i)) >= v) { // also stops on NaN v
			break
		}
		n += c
	}
	return n
}

// Merge folds other into s (other is unchanged). Sketches must share the
// same alpha — merging differently-bucketed sketches has no error bound,
// so it is refused.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if other.alpha != s.alpha {
		return fmt.Errorf("digest: cannot merge alpha=%v into alpha=%v", other.alpha, s.alpha)
	}
	if len(other.counts) > 0 {
		s.cover(other.offset, other.offset+int32(len(other.counts))-1)
		dst := s.counts[other.offset-s.offset:]
		for i, n := range other.counts {
			dst[i] += n
		}
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
	s.mergeExemplars(other)
	return nil
}

// Clone returns an independent deep copy.
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.counts = nil
	if len(s.counts) > 0 {
		c.counts = append([]uint64(nil), s.counts...)
	}
	if s.ex != nil {
		c.ex = make([]Exemplar, len(s.ex))
		copy(c.ex, s.ex)
	}
	return &c
}

// Reset empties the sketch, keeping its accuracy, its exemplar
// capacity (a recycled window bucket keeps tracking) and its bucket
// array.
func (s *Sketch) Reset() {
	s.counts = s.counts[:0]
	s.zero = 0
	s.count = 0
	s.sum = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
	s.ex = nil
}

// Serialization: a compact binary frame so per-shard sketches can be
// shipped and merged. Layout (all multi-byte values little-endian or
// varint):
//
//	magic "dg1" (3 bytes)
//	alpha    float64 bits (8 bytes)
//	zero     uvarint
//	count    uvarint
//	sum      float64 bits (8 bytes)
//	min,max  float64 bits (8+8 bytes, only when count > 0)
//	nbuckets uvarint
//	then per bucket, keys ascending: key delta (varint from previous
//	key), count (uvarint)
//
// Delta-encoding the sorted keys keeps real sketches (dense runs of
// adjacent buckets) to ~2 bytes per bucket.

var magic = []byte("dg1")

// MarshalBinary serializes the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	nb := 0
	for _, c := range s.counts {
		if c != 0 {
			nb++
		}
	}
	buf := make([]byte, 0, 32+3*nb)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.alpha))
	buf = binary.AppendUvarint(buf, s.zero)
	buf = binary.AppendUvarint(buf, s.count)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.sum))
	if s.count > 0 {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.max))
	}
	buf = binary.AppendUvarint(buf, uint64(nb))
	prev := int64(0)
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		k := int64(s.offset) + int64(i)
		buf = binary.AppendVarint(buf, k-prev)
		buf = binary.AppendUvarint(buf, c)
		prev = k
	}
	buf = appendExemplarSection(buf, s)
	return buf, nil
}

// ErrCorrupt reports an undecodable sketch frame.
var ErrCorrupt = errors.New("digest: corrupt sketch encoding")

// UnmarshalBinary decodes a frame produced by MarshalBinary, replacing
// the receiver's state (including its alpha). Bucket keys must ascend
// strictly within [0, key(MaxFloat64)], which bounds what a crafted
// frame can make the dense store allocate.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < len(magic)+8 || string(data[:3]) != string(magic) {
		return ErrCorrupt
	}
	data = data[3:]
	alpha := math.Float64frombits(binary.LittleEndian.Uint64(data))
	data = data[8:]
	if !validAlpha(alpha) {
		return ErrCorrupt
	}
	ns := New(alpha)
	var n int
	if ns.zero, n = binary.Uvarint(data); n <= 0 {
		return ErrCorrupt
	}
	data = data[n:]
	if ns.count, n = binary.Uvarint(data); n <= 0 {
		return ErrCorrupt
	}
	data = data[n:]
	if len(data) < 8 {
		return ErrCorrupt
	}
	ns.sum = math.Float64frombits(binary.LittleEndian.Uint64(data))
	data = data[8:]
	if ns.count > 0 {
		if len(data) < 16 {
			return ErrCorrupt
		}
		ns.min = math.Float64frombits(binary.LittleEndian.Uint64(data))
		ns.max = math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		data = data[16:]
	}
	nb, n := binary.Uvarint(data)
	if n <= 0 || nb > uint64(len(data)) { // each bucket takes >= 2 bytes
		return ErrCorrupt
	}
	data = data[n:]
	// The keys are distinct, so the span holds at least nb buckets.
	ns.counts = make([]uint64, 0, nb)
	prev := int64(0)
	var total uint64
	for i := uint64(0); i < nb; i++ {
		delta, dn := binary.Varint(data)
		if dn <= 0 {
			return ErrCorrupt
		}
		data = data[dn:]
		cnt, cn := binary.Uvarint(data)
		if cn <= 0 || cnt == 0 {
			return ErrCorrupt
		}
		data = data[cn:]
		key := prev + delta
		if (i > 0 && delta <= 0) || key < 0 || key > int64(ns.maxKey) {
			return ErrCorrupt
		}
		ns.cover(int32(key), int32(key))
		ns.counts[int32(key)-ns.offset] = cnt
		prev = key
		total += cnt
	}
	if total+ns.zero != ns.count {
		return ErrCorrupt
	}
	if err := decodeExemplarSection(data, ns); err != nil {
		return err
	}
	*s = *ns
	return nil
}
