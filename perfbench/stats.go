package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// minBeyond is the support rule for a reported percentile: at least
// this many samples must lie strictly above the percentile's rank, so
// the value is not set by a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (p in (0, 1]) of the
// ascending-sorted xs — the smallest sample with at least p·n samples
// at or below it — and whether it is supported: at least minBeyond
// samples lie beyond its rank. An empty input yields (NaN, false).
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	r := rank(p, n)
	return sorted[r-1], n-r >= minBeyond
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n))), 1), n)
}

// dist is a sorted sample with its nearest-rank percentiles.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// q returns the p-quantile, NaN for an empty sample.
func (d dist) q(p float64) float64 {
	v, _ := percentile(d, p)
	return v
}

// supported reports whether the p-quantile meets the support rule.
func (d dist) supported(p float64) bool {
	_, ok := percentile(d, p)
	return ok
}

func (d dist) max() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	return d[len(d)-1]
}

func median(xs []float64) float64 { return newDist(xs).q(0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// histBits sets the histogram's resolution: values below 2^(histBits+1)
// are kept exactly, larger ones in buckets 2^-histBits of their value
// wide.
const histBits = 7

// hist is a log-linear histogram of durations in nanoseconds. It keeps
// a long closed-loop run's latencies in fixed memory, so the
// benchmark's own bookkeeping does not grow the heap it measures.
type hist struct {
	counts []uint64
	n      int
}

func newHist() *hist { return &hist{counts: make([]uint64, (64-histBits)<<histBits)} }

func histIndex(v uint64) int {
	e := max(bits.Len64(v)-histBits-1, 0)
	return e<<histBits + int(v>>e)
}

// histValue is the midpoint of bucket k.
func histValue(k int) float64 {
	if k < 2<<histBits {
		return float64(k)
	}
	e := k>>histBits - 1
	m := uint64(k&(1<<histBits-1) | 1<<histBits)
	return float64(m<<e) + float64(uint64(1)<<e)/2
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(uint64(max(d, 0)))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for k, c := range o.counts {
		h.counts[k] += c
	}
	h.n += o.n
}

// q returns the nearest-rank p-quantile in nanoseconds, within a
// bucket's width of the exact sample, and whether it is supported.
func (h *hist) q(p float64) (float64, bool) {
	if h.n == 0 {
		return math.NaN(), false
	}
	r := rank(p, h.n)
	seen := uint64(0)
	for k, c := range h.counts {
		if seen += c; seen >= uint64(r) {
			return histValue(k), h.n-r >= minBeyond
		}
	}
	panic("perfbench: histogram counts disagree with its total")
}
