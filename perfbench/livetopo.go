package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/kvstore"
	"repro/reissue"
	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
	"repro/reissue/hedge/fault"
	"repro/reissue/hedge/shard"
	"repro/reissue/hedge/tier"
	"repro/reissue/hedge/transport"
)

// The offered rate and hit rate keep each store shard near 150
// sub-queries a second: there the tail is set by the modelled holds of
// the heavy intersections and the slow replica rather than by queueing
// bursts, so p99 repeats from run to run, while 15000 queries a run
// give it 150 samples beyond.
const (
	topoRate          = 500.0 // offered load, queries per second
	topoHitRate       = 0.7
	topoSets          = 300
	topoShards        = 2
	topoReplicas      = 3
	topoCacheReplicas = 3
	topoProbes        = 40 // sequential queries that end each set-up
	topoSetups        = 3
	topoUnit          = time.Millisecond
	// topoDataSeed fixes the stored sets and the query trace. With a
	// few hundred log-normal sets, which pairs are heavy decides the
	// tail, so a per-seed dataset would make p99 a property of the
	// seed; the run seed drives arrivals, cache hits and reissue coins.
	topoDataSeed = 0x5e75
	// topoLateLimit is the p99 lateness that marks the generator as
	// fallen behind, which invalidates a run's latencies. Sleep jitter
	// alone makes it run late by up to several milliseconds on a
	// 1 ms-floor kernel (p99 up to ~7 ms on a 2-CPU VM); far beyond that, the
	// schedule is no longer being kept.
	topoLateLimit = 30 * time.Millisecond
)

var (
	topoSpeeds      = []float64{1, 1, 2.5}
	topoCachePolicy = reissue.SingleR{D: 2, Q: 0.25}
	topoStorePolicy = reissue.SingleR{D: 4, Q: 0.25}
)

// liveTopo is the live-topo system: a cache tier over a 2-shard store
// whose replicas serve over HTTP loopback, one of them behind a fault
// injector.
type liveTopo struct {
	tc       *tier.Client
	router   *shard.Router
	servers  []*transport.ReplicaServer
	injector *fault.Injector
	profiles []fault.Profile
	hits     []bool
	store    *kvstore.Store
	queries  []kvstore.Query
	t        *tracer
}

// buildTopo stands the system up over the first n queries of the fixed
// trace, with seed drawing the cache's hit stream and every edge's
// reissue coins.
func buildTopo(seed uint64, n int, sr backend.SleepResponse, t *tracer) (*liveTopo, error) {
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{NumSets: topoSets, NumQueries: n, Seed: topoDataSeed})
	if err != nil {
		return nil, err
	}
	parts, err := w.Partition(topoShards)
	if err != nil {
		return nil, err
	}
	cw, err := w.CacheView(kvstore.CacheConfig{HitRate: topoHitRate, Seed: seed ^ 0x7071})
	if err != nil {
		return nil, err
	}
	// Holds below the kernel's sleep floor would all take the floor;
	// clamp them above it, as the repository's live runners do.
	minMS := 1.5 * float64(sr.Floor) / float64(topoUnit)
	lt := &liveTopo{
		t: t, hits: cw.Hits, store: w.Store, queries: w.Queries,
		// A fast replica of shard 0 answers three times slower for
		// a sixth of the queries.
		profiles: []fault.Profile{{Replica: 0, Kind: fault.Slow, Factor: 3, From: n / 3, Until: n / 2}},
	}
	cache, err := tier.NewKVCache(cw, backend.Config{Replicas: topoCacheReplicas, Unit: topoUnit, MinServiceMS: minMS})
	if err != nil {
		return nil, err
	}
	route := func(i, attempt int) int { return (backend.PrimaryReplica(i, topoReplicas) + attempt) % topoReplicas }
	shards := make([]backend.Source, topoShards)
	for k, part := range parts {
		clusters := make([]*backend.Cluster, topoReplicas)
		for r := range clusters {
			cfg := backend.Config{Replicas: 1, Unit: topoUnit, MinServiceMS: minMS, SpeedFactors: []float64{topoSpeeds[r]}}
			if clusters[r], err = backend.NewCustom(part.Times, lt.executor(part, k, r), cfg); err != nil {
				lt.close()
				return nil, err
			}
		}
		servers, urls, err := transport.ServeAll(clusters)
		if err != nil {
			lt.close()
			return nil, err
		}
		lt.servers = append(lt.servers, servers...)
		client, err := transport.NewClient(transport.ClientConfig{Replicas: urls, Unit: topoUnit})
		if err != nil {
			lt.close()
			return nil, err
		}
		src := traceSource(t, client, layerTransport, k, route)
		if k == 0 {
			if lt.injector, err = fault.New(src, fault.Config{Replicas: topoReplicas, Profiles: lt.profiles}); err != nil {
				lt.close()
				return nil, err
			}
			src = traceSource(t, lt.injector, layerFault, k, route)
		}
		shards[k] = src
	}
	if lt.router, err = shard.New(shard.Config{
		Shards: shards,
		Hedge:  hedge.Config{Policy: topoStorePolicy, Unit: topoUnit, Seed: seed ^ 0x51},
	}); err != nil {
		lt.close()
		return nil, err
	}
	// The store edge wraps a whole fan-out, so it does not hedge;
	// replica diversity lives inside each shard.
	if lt.tc, err = tier.New(tier.Config{
		Cache:      traceSource(t, cache, layerBackend, -1, nil),
		Store:      traceSource(t, lt.router, layerShard, -1, nil),
		CacheHedge: hedge.Config{Policy: topoCachePolicy, Unit: topoUnit, Seed: seed ^ 0xca},
		StoreHedge: hedge.Config{Policy: reissue.None{}, Unit: topoUnit, Seed: seed ^ 0x5e},
		TierDelay:  math.Inf(1),
	}); err != nil {
		lt.close()
		return nil, err
	}
	return lt, nil
}

// executor runs query i's real intersection on one store replica. A
// traced executor opens the replica's hold span and returns a heldCard,
// which closes it when the transport server encodes the answer.
func (lt *liveTopo) executor(part *kvstore.Workload, shardIdx, replica int) func(i int) (any, error) {
	t := lt.t
	return func(i int) (any, error) {
		id := int32(-1)
		if t != nil {
			id = t.open(-1, layerBackend, i, 0, shardIdx, replica)
		}
		q := part.Queries[i]
		set, _ := part.Store.SInter(q.A, q.B)
		if t == nil {
			return len(set), nil
		}
		return heldCard{n: len(set), t: t, id: id}, nil
	}
}

// heldCard is a traced replica's answer. The transport server encodes
// it right after the replica's hold ends, so MarshalJSON marks the end
// of the hold; the wire carries the same number an untraced replica
// sends.
type heldCard struct {
	n  int
	t  *tracer
	id int32
}

func (c heldCard) MarshalJSON() ([]byte, error) {
	c.t.close(c.id, nil)
	return strconv.AppendInt(nil, int64(c.n), 10), nil
}

// wait returns once every copy is done, losers included: the tier's
// clients first, then the shard clients an outer loser may still be
// dispatching to.
func (lt *liveTopo) wait() {
	lt.tc.Wait()
	lt.router.Wait()
}

func (lt *liveTopo) close() {
	for _, s := range lt.servers {
		s.Close()
	}
}

// expected returns every query's SINTER cardinality, counted here by
// merging the stored members rather than by the store's intersection.
func (lt *liveTopo) expected() []int {
	members := map[string]kvstore.Set{}
	for _, k := range lt.store.Keys() {
		members[k] = lt.store.SMembers(k)
	}
	out := make([]int, len(lt.queries))
	for i, q := range lt.queries {
		out[i] = mergeCount(members[q.A], members[q.B])
	}
	return out
}

// mergeCount counts the members two ascending sets share.
func mergeCount(a, b kvstore.Set) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// checkAnswer reports whether v is query i's right answer from the
// right tier: a cache hit's cardinality exactly on the hit stream's
// hits, otherwise the per-shard partials summing to it.
func checkAnswer(v any, want int, hit bool) bool {
	switch x := v.(type) {
	case int:
		return hit && x == want
	case []any:
		sum := 0.0
		for _, p := range x {
			f, ok := p.(float64)
			if !ok {
				return false
			}
			sum += f
		}
		return !hit && sum == float64(want)
	}
	return false
}

// setupTopo builds the system and sends topoProbes sequential queries
// past the measured range, opening every connection; it returns the
// set-up time.
func setupTopo(seed uint64, m int, sr backend.SleepResponse, t *tracer) (*liveTopo, time.Duration, error) {
	t0 := time.Now()
	lt, err := buildTopo(seed, m+topoProbes, sr, t)
	if err != nil {
		return nil, 0, err
	}
	for i := m; i < m+topoProbes; i++ {
		if _, err := lt.tc.Do(context.Background(), i); err != nil {
			lt.close()
			return nil, 0, fmt.Errorf("set-up probe %d: %w", i, err)
		}
	}
	lt.wait()
	return lt, time.Since(t0), nil
}

// topoRun is one measured open-loop phase.
type topoRun struct {
	timings  []timing
	roots    []int32
	wrong    int
	errs     int
	reissues int64
	elapsed  time.Duration
	cpu      time.Duration
	gc       gcDelta
}

func (lt *liveTopo) reissued() int64 {
	n := lt.tc.CacheClient().Snapshot().Reissued + lt.tc.StoreClient().Snapshot().Reissued
	for _, s := range lt.router.Snapshot().Shards {
		n += s.Reissued
	}
	return n
}

// run drives queries 0..len(offsets)-1 open-loop and checks every
// answer against want.
func (lt *liveTopo) run(offsets []time.Duration, want []int) (*topoRun, error) {
	ctx, stop, fatal := transport.WatchFleet(context.Background(), lt.servers...)
	defer stop()
	t := lt.t
	res := &topoRun{roots: make([]int32, len(offsets))}
	for i := range res.roots {
		res.roots[i] = -1
	}
	ok := make([]bool, len(offsets))
	re0 := lt.reissued()
	gc0, cpu0 := readGC(), cpuTime()
	start := time.Now()
	res.timings = openLoop(ctx, offsets, time.Sleep, func(ctx context.Context, i int, due time.Time) error {
		if t != nil {
			res.roots[i] = t.openAt(t.at(due), -1, layerRequest, i, 0, -1, -1)
			id := t.open(res.roots[i], layerTier, i, 0, -1, -1)
			defer func(id int32) { t.close(id, nil) }(id)
			ctx = withSpan(ctx, id)
		}
		v, err := lt.tc.Do(ctx, i)
		if err != nil {
			return err
		}
		ok[i] = checkAnswer(v, want[i], lt.hits[i])
		return nil
	})
	res.elapsed = time.Since(start)
	lt.wait()
	res.cpu, res.gc = cpuTime()-cpu0, gcBetween(gc0, readGC())
	res.reissues = lt.reissued() - re0
	if err := fatal(); err != nil {
		return nil, fmt.Errorf("replica fleet failed mid-run: %w", err)
	}
	for i, tm := range res.timings {
		switch {
		case tm.issued.IsZero() || tm.err != nil:
			res.errs++
		case !ok[i]:
			res.wrong++
		}
		if t != nil && res.roots[i] >= 0 {
			t.closeAt(res.roots[i], t.at(tm.done), tm.err != nil)
			lg := t.openAt(t.at(tm.due), res.roots[i], layerLoadgen, i, 0, -1, -1)
			t.closeAt(lg, t.at(tm.issued), false)
		}
	}
	return res, nil
}

// latencies returns the due-instant latencies (ms) of a run's queries;
// a failed query counts as infinitely slow.
func (res *topoRun) latencies() dist {
	out := make([]float64, len(res.timings))
	for i, tm := range res.timings {
		if tm.issued.IsZero() || tm.err != nil {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = ms(tm.latency())
	}
	return newDist(out)
}

func (res *topoRun) lateness() dist {
	var out []float64
	for _, tm := range res.timings {
		if !tm.issued.IsZero() {
			out = append(out, ms(tm.late()))
		}
	}
	return newDist(out)
}

func (r *report) countTopo(res *topoRun) {
	r.attempted += int64(len(res.timings))
	r.failed += int64(res.errs + res.wrong)
	if res.wrong > 0 {
		r.fail("%d live-topo answers differ from their SINTER cardinality or came from the wrong tier", res.wrong)
	}
}

// checkLate refuses a run whose generator fell behind: its latencies
// would measure the machine, not the program.
func checkLate(late dist) error {
	if p := late.q(0.99); p > ms(topoLateLimit) {
		return fmt.Errorf("INVALID run: the load generator fell behind (lateness p99 %.3f ms > %v); latencies not reported", p, topoLateLimit)
	}
	return nil
}

func runLiveTopo(o options) (*report, error) {
	r := newReport()
	if o.traced {
		return r, liveTopoTraced(o, r)
	}
	m := int(topoRate * o.seconds.Seconds())
	var setups []float64
	var lt *liveTopo
	for k := 0; k < topoSetups; k++ {
		if lt != nil {
			// Collect the previous set-up before the next one, so peak
			// memory is that of one system, not of the repeats.
			lt.close()
			runtime.GC()
		}
		var d time.Duration
		var err error
		if lt, d, err = setupTopo(o.seed, m, o.sleep, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer lt.close()
	want := lt.expected()
	res, err := lt.run(poissonOffsets(m, topoRate, o.seed^0xa441), want)
	if err != nil {
		return nil, err
	}
	r.countTopo(res)
	late := res.lateness()
	if err := checkLate(late); err != nil {
		return nil, err
	}
	lat := res.latencies()
	n := len(lat)
	r.add("setup_s", median(setups), "s", len(setups), fmt.Sprintf("workload, fleets, servers, clients + %d probes", topoProbes))
	r.add("p50_ms", lat.q(0.5), "ms", n, "from the due instant")
	r.add("p99_ms", lat.q(0.99), "ms", n, fmt.Sprintf("offered %.0f queries/s", topoRate))
	r.add("qps", float64(n)/res.elapsed.Seconds(), "1/s", n, "completed per second of the run")
	r.add("cpu_us_per_query", us(res.cpu)/float64(n), "us", n, "")
	r.add("peak_rss_mb", peakRSSMB(), "MB", 1, "")
	r.add("reissue_rate", float64(res.reissues)/float64(n), "1", n, "copies beyond the primary, all edges, per query")
	r.add("loadgen.late_ms.p99", late.q(0.99), "ms", len(late), "")
	r.add("loadgen.late_ms.max", late.max(), "ms", len(late), "")
	r.addFailFrac()
	return r, nil
}

// liveTopoTraced measures half the time untraced and half traced, each
// on its own freshly built system, and derives the layer metrics from
// the traced half.
func liveTopoTraced(o options, r *report) error {
	m := int(topoRate * o.seconds.Seconds() / 2)
	offsets := poissonOffsets(m, topoRate, o.seed^0xa441)
	lt, _, err := setupTopo(o.seed, m, o.sleep, nil)
	if err != nil {
		return err
	}
	want := lt.expected()
	// A throwaway stretch first: the process's first open loop runs
	// slower (heap and connection pools growing), which would otherwise
	// land on the untraced half alone and hide the tracing overhead.
	if _, err := lt.run(offsets[:m/4], want); err != nil {
		lt.close()
		return err
	}
	plain, err := lt.run(offsets, want)
	lt.close()
	if err != nil {
		return err
	}
	r.countTopo(plain)
	late := plain.lateness()
	if err := checkLate(late); err != nil {
		return err
	}

	t := newTracer(m*40 + 1<<12)
	lt, _, err = setupTopo(o.seed, m, o.sleep, t)
	if err != nil {
		return err
	}
	defer lt.close()
	t.reset()
	cancelled0, slowed0 := lt.cancelledQueued(), lt.injector.Snapshot().Slowed
	traced, err := lt.run(offsets, want)
	if err != nil {
		return err
	}
	r.countTopo(traced)

	n := float64(len(plain.timings))
	r.add("loadgen.late_ms.p99", late.q(0.99), "ms", len(late), "untraced half")
	r.add("loadgen.late_ms.max", late.max(), "ms", len(late), "untraced half")
	r.add("hedge.allocs_per_query", float64(plain.gc.mallocs)/n, "count", len(plain.timings), "whole process, untraced half")
	r.add("hedge.bytes_per_query", float64(plain.gc.tbytes)/n, "B", len(plain.timings), "whole process, untraced half")
	r.addGC(plain.gc, len(plain.timings))
	r.add("backend.cancelled_queued", float64(lt.cancelledQueued()-cancelled0), "count", len(traced.timings), "store copies abandoned while queued")
	r.add("fault.slowed", float64(lt.injector.Snapshot().Slowed-slowed0), "count", len(traced.timings), "")

	a := analyzeTopo(t.recorded(), lt.profiles)
	r.addDist("tier.do_ms", a.tierDo, "ms")
	r.add("tier.store_frac", a.storeFrac, "1", len(a.tierDo), "store sub-queries per tier query")
	r.addDist("shard.fanout_ms", a.fanout, "ms")
	r.add("shard.skew_ms.p99", a.skew.q(0.99), "ms", len(a.skew), "slowest minus fastest shard")
	r.addDist("transport.rpc_ms", a.rpc, "ms")
	r.add("transport.wire_ms.p50", a.wire.q(0.5), "ms", len(a.wire), "RPC minus server queue wait and hold")
	r.addDist("backend.queue_wait_ms", a.queueWait, "ms")
	r.add("backend.hold_ms.p50", a.hold.q(0.5), "ms", len(a.hold), "executor start to the answer's encoding")
	r.add("fault.stretch_ms.p99", a.stretch.q(0.99), "ms", len(a.stretch), "injector edge minus its RPC, slowed copies")
	r.addDist("hedge.do_us", a.do, "us")
	r.add("hedge.copies_per_query", a.copies, "count", len(a.do), "copies per hedged sub-query, all edges")
	r.add("hedge.reissue_win_frac", a.reissueWins, "1", len(a.do), "")
	r.absent["hedge.overhead_us.p50"] = "hedge.Do runs inside tier and shard here; its own time is not separable from outside"
	r.absent["cluster"] = "simulator not on this workload's path"
	r.absent["reissue"] = "optimizer not on this workload's path"

	up, tp := plain.latencies().q(0.5), traced.latencies().q(0.5)
	r.add("trace.overhead_frac", (tp-up)/up, "1", len(traced.timings), "traced minus untraced p50, over untraced")
	p := a.path
	r.ledger = append(r.ledger, fmt.Sprintf(
		"mean query %.3f ms from its due instant = loadgen %.3f + tier %.3f + backend %.3f + shard %.3f + fault %.3f + transport %.3f ms on the blocking path + remainder %.3f ms (goroutine start, answer check); tracing overhead p50 %+.3f ms (%.3f traced vs %.3f untraced)",
		msOf(p.total), msOf(p.by[layerLoadgen]), msOf(p.by[layerTier]), msOf(p.by[layerBackend]),
		msOf(p.by[layerShard]), msOf(p.by[layerFault]), msOf(p.by[layerTransport]), msOf(p.by[layerRequest]),
		tp-up, tp, up))
	return measureCores(r)
}

func msOf(ns int64) float64 { return ms(time.Duration(ns)) }

func (lt *liveTopo) cancelledQueued() int64 {
	var n int64
	for _, s := range lt.servers {
		n += s.Handler.Cancelled()
	}
	return n
}

type topoAnalysis struct {
	tierDo, fanout, skew, rpc, wire, queueWait, hold, stretch, do dist
	storeFrac, copies, reissueWins                                float64
	path                                                          meanPath
}

// analyzeTopo attaches each replica hold to the RPC that carried it
// (one copy per shard, replica and query) and derives the layer
// metrics. Server queue wait is not visible from outside, so it is
// taken as the RPC's lead time to the hold minus the request leg seen
// by copies that found their replica idle.
func analyzeTopo(spans []span, profiles []fault.Profile) topoAnalysis {
	type key struct {
		shard, replica int8
		query          int32
	}
	rpcOf := map[key]int32{}
	var holds, roots []int32
	var a topoAnalysis
	for i := range spans {
		s := &spans[i]
		switch {
		case s.end == 0:
		case s.layer == layerRequest:
			roots = append(roots, int32(i))
		case s.layer == layerTransport:
			rpcOf[key{s.shard, s.replica, s.query}] = int32(i)
		case s.layer == layerBackend && s.parent < 0 && s.shard >= 0:
			holds = append(holds, int32(i))
		}
	}
	for _, h := range holds {
		hs := &spans[h]
		if rpc, ok := rpcOf[key{hs.shard, hs.replica, hs.query}]; ok && spans[rpc].start <= hs.start && hs.end <= spans[rpc].end {
			hs.parent = rpc
		}
	}
	tr := newTree(spans)

	// Idle replicas: a hold that starts after the previous hold on
	// the same replica ended did not queue.
	sort.Slice(holds, func(i, j int) bool { return spans[holds[i]].start < spans[holds[j]].start })
	lastEnd := map[[2]int8]int64{}
	idle := map[int32]bool{}
	const handoff = 50 * int64(time.Microsecond)
	for _, h := range holds {
		hs := &spans[h]
		k := [2]int8{hs.shard, hs.replica}
		if e, seen := lastEnd[k]; !seen || e+handoff < hs.start {
			idle[h] = true
		}
		lastEnd[k] = max(lastEnd[k], hs.end)
	}
	var leads []float64
	for h := range idle {
		if p := spans[h].parent; p >= 0 {
			leads = append(leads, float64(spans[h].start-spans[p].start))
		}
	}
	reqLeg := int64(median(leads))

	var tierDo, fanout, skew, rpc, wire, wait, hold, stretch, do []float64
	stores, copies, groups, wins := 0, 0, 0, 0
	// hedged groups the copies one hedging client issued for one
	// sub-query: the children of parent on the given shard edge.
	hedged := func(parent int32, shardIdx int8, ls ...layer) {
		first, win := int64(math.MaxInt64), int32(-1)
		n := 0
		for _, c := range tr.kids[parent] {
			cs := &tr.spans[c]
			if cs.shard != shardIdx || !slices.Contains(ls, cs.layer) {
				continue
			}
			n++
			first = min(first, cs.start)
			if !cs.failed && (win < 0 || cs.end < tr.spans[win].end) {
				win = c
			}
		}
		if n == 0 || win < 0 {
			return
		}
		groups++
		copies += n
		if tr.spans[win].attempt > 0 {
			wins++
		}
		do = append(do, us(time.Duration(tr.spans[win].end-first)))
	}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.end == 0 {
			continue
		}
		switch s.layer {
		case layerTier:
			tierDo = append(tierDo, msOf(s.dur()))
			hedged(int32(i), -1, layerBackend)
		case layerShard:
			stores++
			fanout = append(fanout, msOf(s.dur()))
			done := map[int8]int64{}
			for _, c := range tr.kids[i] {
				cs := &tr.spans[c]
				if !cs.failed && (done[cs.shard] == 0 || cs.end < done[cs.shard]) {
					done[cs.shard] = cs.end
				}
			}
			if len(done) == topoShards {
				lo, hi := int64(math.MaxInt64), int64(0)
				for _, e := range done {
					lo, hi = min(lo, e), max(hi, e)
				}
				skew = append(skew, msOf(hi-lo))
			}
			for k := int8(0); k < topoShards; k++ {
				hedged(int32(i), k, layerFault, layerTransport)
			}
		case layerTransport:
			if s.failed {
				continue
			}
			rpc = append(rpc, msOf(s.dur()))
			for _, c := range tr.kids[i] {
				hs := &tr.spans[c]
				q := max(0, hs.start-s.start-reqLeg)
				wait = append(wait, msOf(q))
				hold = append(hold, msOf(hs.dur()))
				wire = append(wire, msOf(s.dur()-hs.dur()-q))
			}
		case layerFault:
			if s.failed || fault.Decide(profiles, int(s.replica), int(s.query), int(s.attempt)).Slow <= 1 {
				continue
			}
			for _, c := range tr.kids[i] {
				stretch = append(stretch, msOf(s.dur()-tr.spans[c].dur()))
			}
		}
	}
	a.tierDo, a.fanout, a.skew, a.rpc, a.wire = newDist(tierDo), newDist(fanout), newDist(skew), newDist(rpc), newDist(wire)
	a.queueWait, a.hold, a.stretch, a.do = newDist(wait), newDist(hold), newDist(stretch), newDist(do)
	if len(tierDo) > 0 {
		a.storeFrac = float64(stores) / float64(len(tierDo))
	}
	if groups > 0 {
		a.copies = float64(copies) / float64(groups)
		a.reissueWins = float64(wins) / float64(groups)
	}
	a.path = pathMeans(tr, roots)
	return a
}
