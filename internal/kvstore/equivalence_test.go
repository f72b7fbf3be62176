package kvstore

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// referenceRandomSubset is the map-based Floyd sampler the bitset
// replaced: the same draws, membership in a map, then a sort.
func referenceRandomSubset(r *stats.RNG, valueRange int32, card int) Set {
	n := int(valueRange)
	chosen := make(map[int32]struct{}, card)
	for j := n - card; j < n; j++ {
		v := int32(r.Intn(j + 1))
		if _, taken := chosen[v]; taken {
			v = int32(j)
		}
		chosen[v] = struct{}{}
	}
	out := make(Set, 0, card)
	for v := range chosen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameSet(a, b Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRandomSubsetEquivalence pins the bitset sampler against the
// map-based reference: one reused sampler draws a run of subsets
// (so a bitset left dirty by one draw would corrupt the next) and
// must match fresh reference draws set for set, leaving both RNG
// streams at the same position. Universes include sizes that are not
// a multiple of 64; cardinalities include 1 and the whole universe.
func TestRandomSubsetEquivalence(t *testing.T) {
	ranges := []int32{1, 2, 63, 64, 65, 100, 1000, 4099}
	check := func(seed uint64, rangeSel uint8, cards [6]uint16) bool {
		valueRange := ranges[int(rangeSel)%len(ranges)]
		n := int(valueRange)
		got, want := stats.NewRNG(seed), stats.NewRNG(seed)
		sampler := newSubsetSampler(valueRange)
		for k, c := range cards {
			card := 1 + int(c)%n
			switch k {
			case 0:
				card = 1
			case 1:
				card = n
			}
			if a, b := sampler.sample(got, card), referenceRandomSubset(want, valueRange, card); !sameSet(a, b) {
				t.Logf("range %d card %d: got %v, want %v", valueRange, card, a, b)
				return false
			}
		}
		return got.Uint64() == want.Uint64()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateWorkloadSetsEquivalence rebuilds a generated store's
// sets with the reference sampler from the same member stream.
func TestGenerateWorkloadSetsEquivalence(t *testing.T) {
	cfg := WorkloadConfig{NumSets: 40, ValueRange: 5000, NumQueries: 10, Seed: 21}.withDefaults()
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := stats.NewRNG(cfg.Seed)
	cardRNG, memberRNG := root.Split(1), root.Split(2)
	cardDist := stats.NewLogNormal(cfg.CardMu, cfg.CardSigma)
	for _, key := range w.Store.Keys() {
		card := min(max(int(cardDist.Sample(cardRNG)), 1), int(cfg.ValueRange))
		if want := referenceRandomSubset(memberRNG, cfg.ValueRange, card); !sameSet(w.Store.sets[key], want) {
			t.Fatalf("%s differs from the reference draw", key)
		}
	}
}

// TestCalibrationWorkerIndependent checks that the calibration
// fan-out writes the same Times whatever the pool size, for the
// unsharded workload and for every shard of a partition, and that
// those Times are the ones a plain loop over the queries computes.
func TestCalibrationWorkerIndependent(t *testing.T) {
	cfg := WorkloadConfig{NumSets: 80, NumQueries: 1500, Seed: 11}
	run := func(procs int) [][]float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		w, err := GenerateWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := w.Partition(3)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]float64
		for _, tw := range append([]*Workload{w}, parts...) {
			for i, q := range tw.Queries {
				if _, work := tw.Store.SInterCard(q.A, q.B); tw.Times[i] != tw.Cost.ServiceTime(work) {
					t.Fatalf("GOMAXPROCS %d, trace %d (0 = unsharded, then shards) query %d: Times %v, a plain loop gives %v",
						procs, len(out), i, tw.Times[i], tw.Cost.ServiceTime(work))
				}
			}
			out = append(out, tw.Times)
		}
		return out
	}
	seq, par := run(1), run(4)
	for k := range seq {
		for i := range seq[k] {
			if math.Float64bits(seq[k][i]) != math.Float64bits(par[k][i]) {
				t.Fatalf("trace %d (0 = unsharded, then shards) query %d: %v at GOMAXPROCS 1, %v at 4",
					k, i, seq[k][i], par[k][i])
			}
		}
	}
}
