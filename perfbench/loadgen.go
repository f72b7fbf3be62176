package main

import (
	"context"
	"sync"
	"time"

	"repro/reissue"
)

// timing is one open-loop query: when it was due, when the generator
// actually issued it, and when its answer came back.
type timing struct {
	due, issued, done time.Time
	err               error
}

// latency is charged from the due instant, not from the issue: a
// generator that wakes late delays the request exactly as a stalled
// client would, and that wait belongs to the request.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// late is how far behind its schedule the generator issued the query.
func (t timing) late() time.Duration { return t.issued.Sub(t.due) }

// poissonOffsets draws n open-loop arrival offsets at rate perSec from
// seed.
func poissonOffsets(n int, perSec float64, seed uint64) []time.Duration {
	rng := reissue.NewRNG(seed)
	out := make([]time.Duration, n)
	at := 0.0
	for i := 1; i < n; i++ {
		at += rng.ExpFloat64() / perSec
		out[i] = time.Duration(at * float64(time.Second))
	}
	return out
}

// openLoop issues query i at start+offsets[i], each on its own
// goroutine, and returns every query's timing once all have answered.
// After each wake-up it issues every query already due before sleeping
// again, so a coarse sleep makes queries late but never drifts the
// rate. sleep is time.Sleep outside tests. When ctx ends, the
// remaining queries are not issued and keep a zero issue time.
func openLoop(ctx context.Context, offsets []time.Duration, sleep func(time.Duration),
	do func(ctx context.Context, i int, due time.Time) error) []timing {

	out := make([]timing, len(offsets))
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			sleep(d)
		}
		if ctx.Err() != nil {
			break
		}
		out[i].due, out[i].issued = due, time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].err = do(ctx, i, out[i].due)
			out[i].done = time.Now()
		}(i)
	}
	wg.Wait()
	return out
}
