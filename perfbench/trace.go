package main

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
)

// layer names the package a span's time belongs to. Spans are recorded
// only by this benchmark, around the calls it makes into each layer's
// public functions; nothing inside the program is instrumented.
type layer uint8

const (
	layerRequest     layer = iota // the benchmark's own request frame
	layerLoadgen                  // due instant to issue: the generator running late
	layerTier                     // tier.Client.Do
	layerShard                    // the store edge: shard.Router's Source.Request(i)
	layerFault                    // a fault.Injector edge's Source.Request(i)
	layerTransport                // a transport.Client edge's Source.Request(i): one RPC
	layerBackend                  // an in-process replica copy, or a replica's hold
	layerHedge                    // hedge.Client.Do
	layerExperiments              // sweep.Point.Run of an experiments job
	numLayers
)

var layerNames = [numLayers]string{
	"request", "loadgen", "tier", "shard", "fault", "transport", "backend", "hedge", "experiments",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call. Times are nanoseconds since the tracer's
// epoch; end stays 0 until the call returns.
type span struct {
	start, end int64
	parent     int32 // index of the parent span, -1 for none
	query      int32
	layer      layer
	attempt    int8
	shard      int8 // shard edge the span ran on, -1 when none
	replica    int8 // replica that served the copy, -1 when unknown
	failed     bool
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps spans in a fixed arena so recording one costs an atomic
// add and two clock reads. When the arena is full, open returns -1 and
// the call goes unrecorded; callers end their traced phase before
// that.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.epoch)) }
func (t *tracer) now() int64           { return int64(time.Since(t.epoch)) }

// openAt records a span that starts at the given tracer time.
func (t *tracer) openAt(start int64, parent int32, l layer, query, attempt, shard, replica int) int32 {
	id := t.next.Add(1) - 1
	if id >= int64(len(t.spans)) {
		return -1
	}
	t.spans[id] = span{
		start: start, parent: parent, query: int32(query), layer: l,
		attempt: int8(attempt), shard: int8(shard), replica: int8(replica),
	}
	return int32(id)
}

func (t *tracer) open(parent int32, l layer, query, attempt, shard, replica int) int32 {
	return t.openAt(t.now(), parent, l, query, attempt, shard, replica)
}

func (t *tracer) closeAt(id int32, end int64, failed bool) {
	if id < 0 {
		return
	}
	t.spans[id].end = end
	t.spans[id].failed = failed
}

func (t *tracer) close(id int32, err error) { t.closeAt(id, t.now(), err != nil) }

// reset discards every recorded span. Call it only when no traced call
// is in flight.
func (t *tracer) reset() { t.next.Store(0) }

// recorded returns the spans written so far. Call it only after every
// traced call has returned.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

type spanKey struct{}

func withSpan(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) int32 {
	if id, ok := ctx.Value(spanKey{}).(int32); ok {
		return id
	}
	return -1
}

// tracedSource times every copy a layer issues through an edge's
// Source.Request(i) function. replica maps (query, attempt) to the
// replica the copy is routed to, or is nil when the edge does not
// expose it.
type tracedSource struct {
	backend.Source
	t       *tracer
	layer   layer
	shard   int
	replica func(i, attempt int) int
}

func (s tracedSource) Request(i int) hedge.Fn {
	fn := s.Source.Request(i)
	return func(ctx context.Context, attempt int) (any, error) {
		r := -1
		if s.replica != nil {
			r = s.replica(i, attempt)
		}
		id := s.t.open(spanOf(ctx), s.layer, i, attempt, s.shard, r)
		v, err := fn(withSpan(ctx, id), attempt)
		s.t.close(id, err)
		return v, err
	}
}

// traceSource wraps src when t is non-nil; an untraced run calls the
// layer directly.
func traceSource(t *tracer, src backend.Source, l layer, shard int, replica func(i, attempt int) int) backend.Source {
	if t == nil {
		return src
	}
	return tracedSource{Source: src, t: t, layer: l, shard: shard, replica: replica}
}

// tree indexes recorded spans by parent.
type tree struct {
	spans []span
	kids  [][]int32
}

func newTree(spans []span) *tree {
	tr := &tree{spans: spans, kids: make([][]int32, len(spans))}
	for i := range spans {
		if p := spans[i].parent; p >= 0 && spans[i].end > 0 {
			tr.kids[p] = append(tr.kids[p], int32(i))
		}
	}
	return tr
}

// critical adds to acc, per layer, the self time of every span on id's
// blocking path. Walking back from the span's end, the child that
// finished last before the cursor is the one the span was waiting on;
// its own path is added and the cursor moves to its start, so a child
// overlapping it is not subtracted twice and one ending after the span
// not at all. Time no blocking child covers is the span's own. The
// amounts sum to the span's duration.
func (tr *tree) critical(id int32, acc *[numLayers]int64) {
	s := &tr.spans[id]
	kids := append([]int32(nil), tr.kids[id]...)
	sort.Slice(kids, func(i, j int) bool { return tr.spans[kids[i]].end > tr.spans[kids[j]].end })
	cursor := s.end
	for _, c := range kids {
		cs := &tr.spans[c]
		if cs.end > cursor || cs.start < s.start {
			continue
		}
		acc[s.layer] += cursor - cs.end
		tr.critical(c, acc)
		cursor = cs.start
	}
	acc[s.layer] += cursor - s.start
}

// meanPath is the mean per-query blocking-path time by layer.
type meanPath struct {
	total int64
	by    [numLayers]int64
}

func pathMeans(tr *tree, roots []int32) meanPath {
	var acc [numLayers]int64
	var m meanPath
	for _, id := range roots {
		tr.critical(id, &acc)
		m.total += tr.spans[id].dur()
	}
	if len(roots) == 0 {
		return m
	}
	for l := range acc {
		m.by[l] = acc[l] / int64(len(roots))
	}
	m.total /= int64(len(roots))
	return m
}
