package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/reissue"
	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
)

const (
	satReplicas = 4
	satTrace    = 1 << 15 // trace length; the executor sees i mod satTrace
	satWarmup   = 2000    // calls per caller that end each set-up
	satSetups   = 5
	// satRSSWindow is the window of the measured loop's peak RSS.
	satRSSWindow = time.Second
	// satTraced caps the traced phase; it is below satTrace, so every
	// traced query maps to a distinct executor index.
	satTraced = 30000
)

// satPolicy reissues half the queries at once: a zero delay keeps the
// loop off the timer floor, so hedge.Do's own cost is the workload.
var satPolicy = reissue.SingleR{D: 0, Q: 0.5}

// satFleet is the instant in-process fleet and its hedging client.
type satFleet struct {
	hc  *hedge.Client
	src backend.Source
	t   *tracer
}

func buildSaturate(seed uint64, t *tracer) (*satFleet, error) {
	times := make([]float64, satTrace)
	exec := func(i int) (any, error) { return i, nil }
	if t != nil {
		exec = func(i int) (any, error) {
			t.close(t.open(-1, layerBackend, i, 0, -1, -1), nil)
			return i, nil
		}
	}
	cl, err := backend.NewCustom(times, exec, backend.Config{Replicas: satReplicas})
	if err != nil {
		return nil, err
	}
	hc, err := hedge.New(hedge.Config{Policy: satPolicy, Seed: seed})
	if err != nil {
		return nil, err
	}
	route := func(i, attempt int) int { return (backend.PrimaryReplica(i, satReplicas) + attempt) % satReplicas }
	return &satFleet{hc: hc, src: traceSource(t, cl, layerBackend, -1, route), t: t}, nil
}

// satResult is one closed-loop phase.
type satResult struct {
	lat     *hist // per call, from the call to its return
	calls   int64
	wrong   int64
	errs    int64
	elapsed time.Duration
}

// closedLoop runs one caller per CPU, each issuing its next call when
// the last returns, until the deadline or maxCalls calls.
func (f *satFleet) closedLoop(until time.Time, maxCalls int64) satResult {
	callers := runtime.NumCPU()
	var next atomic.Int64
	lats := make([]*hist, callers)
	var wrong, errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		lats[c] = newHist()
		go func(c int) {
			defer wg.Done()
			base := context.Background()
			for {
				t0 := time.Now()
				if !t0.Before(until) {
					return
				}
				i := next.Add(1) - 1
				if i >= maxCalls {
					return
				}
				ctx, root, hid := base, int32(-1), int32(-1)
				if f.t != nil {
					root = f.t.openAt(f.t.at(t0), -1, layerRequest, int(i), 0, -1, -1)
					hid = f.t.open(root, layerHedge, int(i), 0, -1, -1)
					ctx = withSpan(base, hid)
				}
				v, err := f.hc.Do(ctx, f.src.Request(int(i)))
				t1 := time.Now()
				if f.t != nil {
					f.t.closeAt(hid, f.t.at(t1), err != nil)
					f.t.closeAt(root, f.t.at(t1), err != nil)
				}
				lats[c].add(t1.Sub(t0))
				switch {
				case err != nil:
					errs.Add(1)
				case v != int(i%satTrace):
					wrong.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	f.hc.Wait()
	res := satResult{lat: newHist(), wrong: wrong.Load(), errs: errs.Load(), elapsed: elapsed}
	for _, l := range lats {
		res.lat.merge(l)
	}
	res.calls = int64(res.lat.n)
	return res
}

// setupSaturate builds the fleet and warms it with satWarmup calls per
// caller; the returned duration is the set-up time.
func setupSaturate(seed uint64, t *tracer) (*satFleet, time.Duration, error) {
	t0 := time.Now()
	f, err := buildSaturate(seed, t)
	if err != nil {
		return nil, 0, err
	}
	if w := f.closedLoop(time.Now().Add(time.Minute), int64(satWarmup*runtime.NumCPU())); w.errs+w.wrong > 0 {
		return nil, 0, fmt.Errorf("warm-up: %d errors, %d wrong answers", w.errs, w.wrong)
	}
	return f, time.Since(t0), nil
}

func (r *report) countSat(res satResult) {
	r.attempted += res.calls
	r.failed += res.errs + res.wrong
	if res.wrong > 0 {
		r.fail("%d hedge.Do answers differ from their query index", res.wrong)
	}
}

func runSaturate(o options) (*report, error) {
	r := newReport()
	if o.traced {
		return r, saturateTraced(o, r)
	}
	var setups []float64
	var f *satFleet
	for k := 0; k < satSetups; k++ {
		var d time.Duration
		var err error
		if f, d, err = setupSaturate(o.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	// Collect the earlier set-ups' fleets, so the measured loop starts
	// from the same heap in every run.
	runtime.GC()
	rss, err := watchRSS(satRSSWindow)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	res := f.closedLoop(time.Now().Add(o.seconds), 1<<62)
	cpu := cpuTime() - cpu0
	peaks, err := rss.finish()
	if err != nil {
		return nil, err
	}
	r.countSat(res)
	n := res.lat.n
	p50, _ := res.lat.q(0.5)
	p99, _ := res.lat.q(0.99)
	r.add("setup_s", median(setups), "s", len(setups), fmt.Sprintf("build + %d warm-up calls per caller", satWarmup))
	r.add("p50_ms", p50/1e6, "ms", n, "from the call")
	r.add("p99_ms", p99/1e6, "ms", n, "")
	r.add("qps", float64(res.calls)/res.elapsed.Seconds(), "1/s", n, fmt.Sprintf("%d callers", runtime.NumCPU()))
	r.add("cpu_us_per_query", us(cpu)/float64(max(res.calls, 1)), "us", n, "")
	r.add("peak_rss_mb", median(peaks), "MB", len(peaks), fmt.Sprintf("median of the measured loop's %v window peaks", satRSSWindow))
	r.addFailFrac()
	return r, nil
}

// saturateTraced runs half the time untraced (overhead base, allocation
// and GC counts) and then up to satTraced calls traced.
func saturateTraced(o options, r *report) error {
	f, _, err := setupSaturate(o.seed, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	gc0 := readGC()
	plain := f.closedLoop(time.Now().Add(o.seconds/2), 1<<62)
	g := gcBetween(gc0, readGC())
	r.countSat(plain)

	// The traced fleet is warmed like the plain one; its warm-up spans
	// are then discarded.
	t := newTracer(satTraced * 6)
	tf, _, err := setupSaturate(o.seed, t)
	if err != nil {
		return err
	}
	t.reset()
	traced := tf.closedLoop(time.Now().Add(o.seconds/2), satTraced)
	r.countSat(traced)

	calls := float64(max(plain.calls, 1))
	r.add("hedge.allocs_per_query", float64(g.mallocs)/calls, "count", int(plain.calls), "whole process, untraced phase")
	r.add("hedge.bytes_per_query", float64(g.tbytes)/calls, "B", int(plain.calls), "whole process, untraced phase")
	r.addGC(g, int(plain.calls))

	sa := analyzeSaturate(t.recorded())
	r.addDist("hedge.do_us", sa.do, "us")
	r.add("hedge.overhead_us.p50", sa.overhead.q(0.5), "us", len(sa.overhead), "Do minus its winning copy")
	r.add("hedge.copies_per_query", sa.copies, "count", len(sa.do), "")
	r.add("hedge.reissue_win_frac", sa.reissueWins, "1", len(sa.do), "")
	r.addDist("backend.queue_wait_ms", sa.queueWait, "ms")
	r.add("backend.hold_ms.p50", sa.hold.q(0.5), "ms", len(sa.hold), "executor start to the copy's return")
	r.add("backend.cancelled_queued", float64(sa.cancelledQueued), "count", sa.copySpans, "copies cancelled before the executor ran")
	r.absent["loadgen"] = "closed loop: no schedule to fall behind"
	r.absent["cluster"] = "simulator not on this workload's path"
	r.absent["reissue"] = "optimizer not on this workload's path"

	up, _ := plain.lat.q(0.5)
	tp, _ := traced.lat.q(0.5)
	up, tp = up/1e6, tp/1e6
	r.add("trace.overhead_frac", (tp-up)/up, "1", traced.lat.n, "traced minus untraced p50, over untraced")
	e2e := sa.meanLayers
	r.ledger = append(r.ledger, fmt.Sprintf(
		"mean Do call %.2f us = hedge %.2f us + backend %.2f us on the blocking path + remainder %.2f us (loop); tracing overhead p50 %+.2f us (%.4f ms traced vs %.4f ms untraced)",
		us(time.Duration(e2e.total)), us(time.Duration(e2e.by[layerHedge])), us(time.Duration(e2e.by[layerBackend])),
		us(time.Duration(e2e.by[layerRequest])), (tp-up)*1000, tp, up))
	return measureCores(r)
}

type satAnalysis struct {
	do, overhead, queueWait, hold dist
	copies, reissueWins           float64
	cancelledQueued, copySpans    int
	meanLayers                    meanPath
}

// analyzeSaturate links each executor span to the copy that ran it —
// the executor runs inside its copy's call, so the copy of the same
// query whose interval contains it — and derives the hedge and backend
// metrics.
func analyzeSaturate(spans []span) satAnalysis {
	copiesOf := map[int32][]int32{} // executor index → copy spans
	var execs, roots []int32
	for i := range spans {
		s := &spans[i]
		switch {
		case s.end == 0:
		case s.layer == layerRequest:
			roots = append(roots, int32(i))
		case s.layer == layerBackend && s.parent >= 0:
			copiesOf[s.query%satTrace] = append(copiesOf[s.query%satTrace], int32(i))
		case s.layer == layerBackend:
			execs = append(execs, int32(i))
		}
	}
	claimed := map[int32]bool{}
	for _, e := range execs {
		es := &spans[e]
		cands := copiesOf[es.query]
		sort.Slice(cands, func(a, b int) bool { return spans[cands[a]].start < spans[cands[b]].start })
		for _, c := range cands {
			cs := &spans[c]
			if !claimed[c] && cs.start <= es.start && es.start <= cs.end {
				claimed[c] = true
				es.parent = c
				break
			}
		}
	}
	tr := newTree(spans)
	var a satAnalysis
	var do, overhead, wait, hold []float64
	copies, wins := 0, 0
	for _, root := range roots {
		for _, h := range tr.kids[root] {
			hs := &tr.spans[h]
			if hs.layer != layerHedge {
				continue
			}
			do = append(do, us(time.Duration(hs.dur())))
			win := int32(-1) // the first copy to answer
			for _, c := range tr.kids[h] {
				cs := &tr.spans[c]
				copies++
				if !cs.failed && (win < 0 || cs.end < tr.spans[win].end) {
					win = c
				}
			}
			if win >= 0 {
				overhead = append(overhead, us(time.Duration(hs.dur()-tr.spans[win].dur())))
				if tr.spans[win].attempt > 0 {
					wins++
				}
			}
		}
	}
	for i := range tr.spans {
		cs := &tr.spans[i]
		if cs.layer != layerBackend || cs.parent < 0 || tr.spans[cs.parent].layer != layerHedge || cs.end == 0 {
			continue
		}
		a.copySpans++
		kids := tr.kids[i]
		if len(kids) == 0 {
			// The executor never fails, so a copy that failed
			// without running it was cancelled while queued.
			if cs.failed {
				a.cancelledQueued++
			}
			continue
		}
		es := &tr.spans[kids[0]]
		wait = append(wait, ms(time.Duration(es.start-cs.start)))
		hold = append(hold, ms(time.Duration(cs.end-es.start)))
	}
	a.do, a.overhead, a.queueWait, a.hold = newDist(do), newDist(overhead), newDist(wait), newDist(hold)
	if n := len(do); n > 0 {
		a.copies = float64(copies) / float64(n)
		a.reissueWins = float64(wins) / float64(n)
	}
	a.meanLayers = pathMeans(tr, roots)
	return a
}
