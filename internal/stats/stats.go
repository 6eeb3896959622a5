// Package stats provides the counters, histograms and derived-metric helpers
// used by every simulator component. All figures in the paper are
// aggregations over these raw event counts.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Set is a named collection of counters. The zero value is not usable; call
// NewSet.
type Set struct {
	names  []string
	values map[string]*uint64
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{values: make(map[string]*uint64)}
}

// Counter returns (creating if needed) the counter with the given name.
func (s *Set) Counter(name string) *uint64 {
	if c, ok := s.values[name]; ok {
		return c
	}
	c := new(uint64)
	s.values[name] = c
	s.names = append(s.names, name)
	return c
}

// Add increments the named counter by n.
func (s *Set) Add(name string, n uint64) { *s.Counter(name) += n }

// Get returns the value of the named counter (zero when absent).
func (s *Set) Get(name string) uint64 {
	if c, ok := s.values[name]; ok {
		return *c
	}
	return 0
}

// Names returns the counter names in creation order.
func (s *Set) Names() []string { return append([]string(nil), s.names...) }

// String renders the set sorted by name, one counter per line.
func (s *Set) String() string {
	names := s.Names()
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-40s %d\n", n, *s.values[n])
	}
	return b.String()
}

// Ratio returns a/b as a float, or 0 when b is zero.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Pct returns 100*a/b, or 0 when b is zero.
func Pct(a, b uint64) float64 { return 100 * Ratio(a, b) }

// Div returns a/b, or 0 when b is zero or the quotient is not finite. Every
// derived metric that can see an empty denominator — a configuration that
// never enters runahead, an empty benchmark subset, a zero-length sampled
// window — must divide through here (or Ratio/Pct) so tables and -json
// output never carry NaN or Inf, which encoding/json rejects outright.
func Div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	q := a / b
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return 0
	}
	return q
}

// PctDelta returns the percent difference of v relative to base:
// 100*(v-base)/base. Returns 0 when base is 0.
func PctDelta(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (v - base) / base
}

// GeoMean returns the geometric mean of xs. Non-positive entries are clamped
// to a tiny positive value so a single zero does not zero the whole mean.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-9
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Histogram is a fixed-bucket histogram over non-negative integer samples.
type Histogram struct {
	// BucketWidth is the width of each bucket; bucket i covers
	// [i*BucketWidth, (i+1)*BucketWidth).
	BucketWidth uint64
	Buckets     []uint64
	Count       uint64
	Sum         uint64
	MaxSeen     uint64
}

// NewHistogram returns a histogram with n buckets of the given width.
// Samples beyond the last bucket are clamped into it.
func NewHistogram(n int, width uint64) *Histogram {
	if n <= 0 || width == 0 {
		panic("stats: histogram needs n > 0 buckets of width > 0")
	}
	return &Histogram{BucketWidth: width, Buckets: make([]uint64, n)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := v / h.BucketWidth
	if i >= uint64(len(h.Buckets)) {
		i = uint64(len(h.Buckets)) - 1
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += v
	if v > h.MaxSeen {
		h.MaxSeen = v
	}
}

// Mean returns the mean of the observed samples (0 when empty).
func (h *Histogram) Mean() float64 { return Ratio(h.Sum, h.Count) }

// Percentile returns the smallest bucket upper bound covering at least
// p (0..1) of the samples.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(h.Count)))
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			return uint64(i+1) * h.BucketWidth
		}
	}
	return uint64(len(h.Buckets)) * h.BucketWidth
}
