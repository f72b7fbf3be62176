// Package sweep is the dispatcher/worker harness for evaluating
// independent simulation points — figure series, parameter grids,
// budget sweeps — over a pool of warm, per-worker engines.
//
// The shape is a dispatcher plus N workers: the dispatcher hands out
// point indices over a channel, and each worker evaluates its points
// one at a time against a private Env. The Env carries the worker's
// warm engine: a point wraps each cluster it builds with Env.Warm,
// which transfers the previous point's pooled simulation state
// (event slab, request arena, query records, server queues — the
// PR 3 runState) into the new cluster via cluster.AdoptState. A
// worker therefore pays for engine construction once and every
// subsequent point on that worker runs allocation-warm, matching the
// sequential harness's steady state.
//
// Determinism: a point must be a pure function of its own inputs —
// every cluster re-derives its RNG streams from its Config seed on
// each run, so results are independent of which worker evaluates a
// point, of scheduling order, and of the worker count. Results are
// merged by point index, never by completion order. Per-point seeds
// should be derived with Seed (stats.Mix64 over base seed and point
// index) so shuffling or re-chunking a grid never changes any
// point's stream.
package sweep

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// Point is one independent unit of sweep work.
type Point struct {
	// Label identifies the point in errors and progress output,
	// e.g. "3a/Queueing/B=0.05".
	Label string
	// Run evaluates the point. It must write its results into
	// storage no other point touches (its own slice slot, its own
	// captured variables); the harness guarantees all writes are
	// visible to the caller once Run returns.
	Run func(env *Env) error
}

// Options configures a sweep.
type Options struct {
	// Workers is the pool size. Zero or negative selects
	// runtime.NumCPU(). One runs the points inline on the calling
	// goroutine with a single warm Env — the sequential path, with
	// no goroutines or channels.
	Workers int
	// Progress, when non-nil, receives periodic progress lines
	// (points completed, rate, ETA) and a final summary.
	Progress io.Writer
	// Name labels progress output; defaults to "sweep".
	Name string
	// ProgressEvery is the reporting interval; defaults to 2s.
	ProgressEvery time.Duration
}

// Env is a worker's private environment, passed to every point the
// worker evaluates. It carries the worker's warm engine between
// points.
type Env struct {
	// Worker is the worker's index in [0, Workers).
	Worker int
	// Point is the index of the point currently being evaluated,
	// set by the harness before each Run. Combined with Seed it
	// gives a point a deterministic stream independent of
	// scheduling.
	Point int

	donor *cluster.Cluster
}

// Warm hands the worker's pooled engine state to c and returns c.
// Call it on each cluster a point builds, immediately before the
// cluster's first run; the cluster adopts the previous point's event
// slab, arenas, and server pool, so steady-state points allocate
// like repeated runs on a single cluster. Order matters when a point
// builds several clusters: warm each one after the previous cluster
// has finished all of its runs, because adoption transfers (not
// copies) the pooled state.
func (e *Env) Warm(c *cluster.Cluster) *cluster.Cluster {
	if e == nil || c == nil {
		return c
	}
	if e.donor != nil && e.donor != c {
		c.AdoptState(e.donor)
	}
	e.donor = c
	return c
}

// WarmCluster is Warm lifted over a (cluster, error) constructor
// result, so call sites can wrap builders directly:
//
//	wl, err := env.WarmCluster(workload.Queueing(o))
func (e *Env) WarmCluster(c *cluster.Cluster, err error) (*cluster.Cluster, error) {
	if err != nil {
		return c, err
	}
	return e.Warm(c), nil
}

// Seed derives the deterministic seed for point i of a sweep from
// the sweep's base seed, using the repository's shared Mix64
// finalizer. The result depends only on (base, i) — never on worker
// count or scheduling — and is never zero (many Config consumers
// treat a zero seed as "unset").
func Seed(base uint64, i int) uint64 {
	return stats.Mix64NonZero(base ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
}

// Run evaluates every point and returns the first error by point
// index (not completion order), so a failing grid reports the same
// point no matter how the pool scheduled it. A panicking point is
// converted into an error naming the point; it never deadlocks the
// dispatcher. On error the remaining undispatched points are
// skipped.
func Run(points []Point, opt Options) error {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(points) {
		workers = len(points)
	}
	if len(points) == 0 {
		return nil
	}

	prog := newProgress(opt, len(points))
	defer prog.close()

	errs := make([]error, len(points))
	if workers <= 1 {
		env := &Env{Worker: 0}
		for i := range points {
			env.Point = i
			if err := runPoint(&points[i], i, env); err != nil {
				prog.fail(i, label(&points[i], i))
				return err
			}
			prog.done()
		}
		return nil
	}

	idx := make(chan int)
	var failed atomic.Bool
	var wg sync.WaitGroup
	go func() {
		for i := range points {
			if failed.Load() {
				break
			}
			idx <- i
		}
		close(idx)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			env := &Env{Worker: w}
			for i := range idx {
				// Drain without evaluating once any point failed, so
				// the dispatcher never blocks on a send with no
				// receivers and the sweep winds down promptly.
				if failed.Load() {
					continue
				}
				env.Point = i
				if err := runPoint(&points[i], i, env); err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				prog.done()
			}
		}(w)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			prog.fail(i, label(&points[i], i))
			return err
		}
	}
	return nil
}

// runPoint evaluates one point, converting a panic into an error
// that names the point.
func runPoint(p *Point, i int, env *Env) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: point %d (%s) panicked: %v", i, label(p, i), r)
		}
	}()
	if p.Run == nil {
		return fmt.Errorf("sweep: point %d (%s) has no Run func", i, label(p, i))
	}
	if err := p.Run(env); err != nil {
		return fmt.Errorf("sweep: point %d (%s): %w", i, label(p, i), err)
	}
	return nil
}

func label(p *Point, i int) string {
	if p.Label != "" {
		return p.Label
	}
	return fmt.Sprintf("#%d", i)
}

// Map evaluates fn over items through the pool and returns the
// results in item order. It is the convenience shape for grids whose
// points all produce a value of the same type.
func Map[T, R any](items []T, opt Options, fn func(env *Env, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	points := make([]Point, len(items))
	for i := range items {
		i := i
		points[i] = Point{
			Label: fmt.Sprintf("#%d", i),
			Run: func(env *Env) error {
				r, err := fn(env, i, items[i])
				if err != nil {
					return err
				}
				out[i] = r
				return nil
			},
		}
	}
	if err := Run(points, opt); err != nil {
		return nil, err
	}
	return out, nil
}

// rangeChunks is how many contiguous pieces Chunks cuts a range
// into. It is fixed rather than derived from the worker count, so
// the cut — and the allocations of a call — are the same on every
// machine, and 64 pieces balance uneven per-index cost over any small
// pool.
const rangeChunks = 64

// Chunks evaluates fn over [0, n), cut into contiguous [lo, hi)
// pieces, through Run at runtime.GOMAXPROCS(0) workers. It is the
// shape of a per-index calibration loop: fn must write only the
// results of its own indices, so the outcome is identical at any
// worker count and only the wall clock changes. A panic in fn
// returns as an error naming the piece.
func Chunks(n int, fn func(lo, hi int)) error {
	pieces := min(n, rangeChunks)
	points := make([]Point, pieces)
	for c := range points {
		lo, hi := c*n/pieces, (c+1)*n/pieces
		points[c].Run = func(*Env) error {
			fn(lo, hi)
			return nil
		}
	}
	return Run(points, Options{Workers: runtime.GOMAXPROCS(0)})
}

// progress is the sweep-level progress/ETA reporter: a counter
// shared by the workers and one goroutine that periodically renders
// it, so worker hot loops never block on the writer.
type progress struct {
	w         io.Writer
	name      string
	total     int
	completed atomic.Int64
	start     time.Time
	stop      chan struct{}
	stopped   sync.WaitGroup
	// failure, when non-empty, identifies the failing point
	// ("point 3 (label)"); the final summary then reports the
	// failure instead of the success shape. Written by Run before
	// close, read by the final report — never concurrently with the
	// ticker goroutine, which only renders non-final lines.
	failure string
}

func newProgress(opt Options, total int) *progress {
	p := &progress{w: opt.Progress, total: total, start: time.Now()}
	if p.w == nil {
		return p
	}
	p.name = opt.Name
	if p.name == "" {
		p.name = "sweep"
	}
	every := opt.ProgressEvery
	if every <= 0 {
		every = 2 * time.Second
	}
	p.stop = make(chan struct{})
	p.stopped.Add(1)
	go func() {
		defer p.stopped.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				p.report(false)
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

func (p *progress) done() {
	p.completed.Add(1)
}

// fail records the failing point for the final summary.
func (p *progress) fail(i int, label string) {
	p.failure = fmt.Sprintf("point %d (%s)", i, label)
}

func (p *progress) report(final bool) {
	n := int(p.completed.Load())
	elapsed := time.Since(p.start)
	// A first tick on a coarse clock, or a clock step, can make
	// elapsed zero or negative; a rate computed from it would be
	// NaN/Inf/negative and the ETA nonsense.
	rate := 0.0
	if elapsed > 0 {
		rate = float64(n) / elapsed.Seconds()
	} else {
		elapsed = 0
	}
	if final {
		if p.failure != "" {
			fmt.Fprintf(p.w, "%s: FAILED at %s after %d/%d points, %s elapsed\n",
				p.name, p.failure, n, p.total, elapsed.Round(time.Millisecond))
			return
		}
		fmt.Fprintf(p.w, "%s: %d/%d points in %s (%.1f pts/s)\n",
			p.name, n, p.total, elapsed.Round(time.Millisecond), rate)
		return
	}
	eta := "?"
	if n > 0 && rate > 0 {
		rem := time.Duration(float64(p.total-n) / rate * float64(time.Second))
		eta = rem.Round(time.Second).String()
	}
	fmt.Fprintf(p.w, "%s: %d/%d points (%.1f pts/s, ETA %s)\n",
		p.name, n, p.total, rate, eta)
}

func (p *progress) close() {
	if p.w == nil {
		return
	}
	close(p.stop)
	p.stopped.Wait()
	p.report(true)
}
