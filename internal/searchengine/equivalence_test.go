package searchengine

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// refHeap is the container/heap top-k the OR search used before the
// merge rewrite, kept as part of the reference.
type refHeap []Hit

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Doc > h[j].Doc
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(Hit)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// referenceSearchOR is the term-at-a-time OR search the k-way merge
// replaced: a score map filled in query-term order, then the touched
// documents sorted by id and pushed through a container/heap top-k.
func referenceSearchOR(ix *Index, terms []int, topK int) Result {
	var work Work
	scores := make(map[int32]float64)
	for _, t := range terms {
		if t < 0 || t >= ix.numTerms {
			continue
		}
		idf := ix.IDF(t)
		for _, p := range ix.postings[t] {
			work.Postings++
			scores[p.Doc] += float64(p.TF) * idf
		}
	}
	docs := make([]int32, 0, len(scores))
	for doc := range scores {
		docs = append(docs, doc)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	h := &refHeap{}
	for _, doc := range docs {
		work.Scored++
		hit := Hit{Doc: doc, Score: scores[doc]}
		if h.Len() < topK {
			heap.Push(h, hit)
		} else if (*h)[0].Score < hit.Score {
			(*h)[0] = hit
			heap.Fix(h, 0)
		}
	}
	hits := make([]Hit, h.Len())
	for i := len(hits) - 1; i >= 0; i-- {
		hits[i] = heap.Pop(h).(Hit)
	}
	return Result{Hits: hits, Work: work}
}

// sameResult reports whether two results agree bit for bit: the same
// Work, and the same hits in the same order with identical score bits.
func sameResult(a, b Result) bool {
	if a.Work != b.Work || len(a.Hits) != len(b.Hits) {
		return false
	}
	for i := range a.Hits {
		if a.Hits[i].Doc != b.Hits[i].Doc ||
			math.Float64bits(a.Hits[i].Score) != math.Float64bits(b.Hits[i].Score) {
			return false
		}
	}
	return true
}

// equivalenceIndexes returns indexes that stress the merge: a corpus
// with a vocabulary much larger than it uses (many terms with empty
// postings), a denser one, and the sub-indexes of a sharded workload.
func equivalenceIndexes(t *testing.T) map[string]*Index {
	t.Helper()
	out := map[string]*Index{
		"sparse": BuildIndex(CorpusConfig{NumDocs: 150, VocabSize: 3000, MeanDocLen: 30, Seed: 3}),
		"dense":  BuildIndex(CorpusConfig{NumDocs: 400, VocabSize: 120, MeanDocLen: 60, Seed: 5}),
	}
	parts, err := GenerateShardedWorkload(shardCfg(10), 3)
	if err != nil {
		t.Fatal(err)
	}
	for s, w := range parts {
		out[fmt.Sprintf("shard%d", s)] = w.Index
	}
	return out
}

// TestSearchOREquivalence pins the document-at-a-time merge against
// the map-and-sort reference over random queries: up to 20 terms
// (past the merge's 8-cursor stack buffer), duplicates, negative and
// out-of-range terms, terms with empty postings, and topK 1/10/100.
func TestSearchOREquivalence(t *testing.T) {
	for name, ix := range equivalenceIndexes(t) {
		empty := 0
		for term := 0; term < ix.NumTerms(); term++ {
			if ix.DocFreq(term) == 0 {
				empty++
			}
		}
		if name == "sparse" && empty == 0 {
			t.Fatal("sparse index has no empty postings lists; the test lost its edge case")
		}
		check := func(seed uint64, nTerms, kSel uint8) bool {
			r := stats.NewRNG(seed | 1)
			terms := make([]int, int(nTerms)%21)
			for i := range terms {
				switch r.Intn(8) {
				case 0: // out of range on either side
					terms[i] = -1 - r.Intn(3)
				case 1:
					terms[i] = ix.NumTerms() + r.Intn(3)
				case 2: // a duplicate of an earlier term
					if i > 0 {
						terms[i] = terms[r.Intn(i)]
						continue
					}
					fallthrough
				default:
					terms[i] = r.Intn(ix.NumTerms())
				}
			}
			topK := []int{1, 10, 100}[int(kSel)%3]
			got := ix.searchOR(terms, topK)
			want := referenceSearchOR(ix, terms, topK)
			if !sameResult(got, want) {
				t.Logf("%s: terms %v topK %d: got %+v, want %+v", name, terms, topK, got, want)
				return false
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestGenerateWorkloadOREquivalence replays a generated trace's OR
// queries through the reference at the calibration's topK, so the
// Work behind every OR query's Times entry is pinned too.
func TestGenerateWorkloadOREquivalence(t *testing.T) {
	w, err := GenerateWorkload(shardCfg(300))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries {
		if q.Conjunctive {
			continue
		}
		want := referenceSearchOR(w.Index, q.Terms, 10)
		if got := w.Index.Search(q, 10); !sameResult(got, want) {
			t.Fatalf("query %d %v: got %+v, want %+v", i, q.Terms, got, want)
		}
		if w.Times[i] != w.Cost.ServiceTime(want.Work) {
			t.Fatalf("query %d: Times %v, reference work gives %v", i, w.Times[i], w.Cost.ServiceTime(want.Work))
		}
	}
}

// TestCalibrationWorkerIndependent checks that the calibration
// fan-out writes the same Times whatever the pool size, and that
// those Times are the ones a plain loop over the queries computes.
func TestCalibrationWorkerIndependent(t *testing.T) {
	cfg := shardCfg(400)
	run := func(procs int) ([]float64, [][]float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		w, err := GenerateWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := GenerateShardedWorkload(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		var shardTimes [][]float64
		for k, tw := range append([]*Workload{w}, parts...) {
			for i, q := range tw.Queries {
				if want := tw.Cost.ServiceTime(tw.Index.Search(q, 10).Work); tw.Times[i] != want {
					t.Fatalf("GOMAXPROCS %d, trace %d (0 = unsharded, then shards) query %d: Times %v, a plain loop gives %v",
						procs, k, i, tw.Times[i], want)
				}
			}
			if k > 0 {
				shardTimes = append(shardTimes, tw.Times)
			}
		}
		return w.Times, shardTimes
	}
	seqTimes, seqShards := run(1)
	parTimes, parShards := run(4)
	if !sameBits(seqTimes, parTimes) {
		t.Fatal("GenerateWorkload Times differ between GOMAXPROCS 1 and 4")
	}
	for s := range seqShards {
		if !sameBits(seqShards[s], parShards[s]) {
			t.Fatalf("GenerateShardedWorkload shard %d Times differ between GOMAXPROCS 1 and 4", s)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
