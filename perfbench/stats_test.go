package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.901, 91}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got, _ := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if v, ok := percentile(nil, 0.5); !math.IsNaN(v) || ok {
		t.Errorf("empty sample gave (%v, %v), want (NaN, false)", v, ok)
	}
}

// A percentile is supported only with at least ten samples beyond its
// rank: p99 needs 1000 samples, p50 needs 20.
func TestPercentileSupportRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{100, 0.9, true}, {99, 0.9, false},
		{19, 0.5, false}, {20, 0.5, true},
		{5000, 1, false},
	} {
		if _, ok := percentile(seq(c.n), c.p); ok != c.want {
			t.Errorf("n=%d p=%v supported=%v, want %v", c.n, c.p, ok, c.want)
		}
	}
	d := newDist([]float64{3, 1, 2})
	if d.q(0.5) != 2 || d.max() != 3 || d.supported(0.5) {
		t.Errorf("dist of 3 samples: q50=%v max=%v supported=%v", d.q(0.5), d.max(), d.supported(0.5))
	}
}

// The histogram answers the same nearest-rank percentile as the exact
// sample, within its bucket width, with the same support rule.
func TestHistMatchesExactPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newHist()
	var xs []float64
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.ExpFloat64() * 20000)
		if i%100 == 0 {
			d *= 1000
		}
		h.add(d)
		xs = append(xs, float64(d))
	}
	exact := newDist(xs)
	for _, p := range []float64{0.001, 0.5, 0.9, 0.99, 0.999, 1} {
		got, ok := h.q(p)
		want, wantOK := percentile(exact, p)
		if math.Abs(got-want) > want/(1<<histBits)+1 || ok != wantOK {
			t.Errorf("p%v: histogram (%v, %v), exact (%v, %v)", p, got, ok, want, wantOK)
		}
	}
	for _, v := range []uint64{0, 1, 1023, 1024, 1025, 1 << 40} {
		if k := histIndex(v); math.Abs(histValue(k)-float64(v)) > float64(v)/(1<<histBits)+1 {
			t.Errorf("value %d lands in bucket %d worth %v", v, k, histValue(k))
		}
	}
}
