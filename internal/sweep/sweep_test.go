package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/reissue"
)

func TestMapPreservesItemOrder(t *testing.T) {
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := Map(items, Options{Workers: workers}, func(env *Env, i, item int) (int, error) {
			if env.Point != i {
				return 0, fmt.Errorf("env.Point = %d for point %d", env.Point, i)
			}
			// Stagger completion so out-of-order finishes would show.
			time.Sleep(time.Duration((len(items)-i)%5) * time.Millisecond)
			return item * item, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmptyAndNilRun(t *testing.T) {
	if err := Run(nil, Options{}); err != nil {
		t.Fatalf("empty sweep: %v", err)
	}
	err := Run([]Point{{Label: "hole"}}, Options{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "hole") {
		t.Fatalf("nil Run func: %v", err)
	}
}

// TestRunPanicNamesPoint is the ISSUE's dispatcher-safety
// regression: a panicking point must fail the sweep with the point's
// identity in the error, not deadlock the dispatcher.
func TestRunPanicNamesPoint(t *testing.T) {
	for _, workers := range []int{1, 4} {
		points := make([]Point, 20)
		for i := range points {
			i := i
			points[i] = Point{
				Label: fmt.Sprintf("grid/p%d", i),
				Run: func(*Env) error {
					if i == 11 {
						panic("boom")
					}
					return nil
				},
			}
		}
		done := make(chan error, 1)
		go func() { done <- Run(points, Options{Workers: workers}) }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: panic not surfaced", workers)
			}
			for _, want := range []string{"grid/p11", "panicked", "boom"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("workers=%d: error %q missing %q", workers, err, want)
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: sweep deadlocked on panic", workers)
		}
	}
}

func TestRunErrorNamesPoint(t *testing.T) {
	boom := errors.New("bad point")
	points := []Point{
		{Label: "a", Run: func(*Env) error { return nil }},
		{Label: "b", Run: func(*Env) error { return boom }},
	}
	err := Run(points, Options{Workers: 1})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "(b)") {
		t.Fatalf("error lost identity: %v", err)
	}
}

func TestSeedDeterministicAndNonZero(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		s := Seed(0, i)
		if s == 0 {
			t.Fatalf("Seed(0, %d) = 0", i)
		}
		if s != Seed(0, i) {
			t.Fatalf("Seed(0, %d) not stable", i)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("Seed collision between points %d and %d", j, i)
		}
		seen[s] = i
	}
	if Seed(1, 5) == Seed(2, 5) {
		t.Fatal("Seed ignores the base")
	}
}

// TestWarmEnginesReplayIdentical drives the harness end to end the
// way the figure jobs do — every point builds its own cluster,
// warmed from the worker's previous point — and checks the merged
// grid is byte-identical to cold sequential evaluation at every
// worker count.
func TestWarmEnginesReplayIdentical(t *testing.T) {
	cfg := func(i int) cluster.Config {
		return cluster.Config{
			Servers:     4,
			ArrivalRate: cluster.ArrivalRateForUtilization(0.4, 4, 10),
			Queries:     600,
			Warmup:      60,
			Source:      cluster.DistSource{Dist: stats.NewExponential(0.1)},
			Seed:        Seed(42, i),
		}
	}
	const n = 12
	eval := func(workers int) ([]float64, error) {
		out := make([]float64, n)
		points := make([]Point, n)
		for i := range points {
			i := i
			points[i] = Point{
				Label: fmt.Sprintf("p%d", i),
				Run: func(env *Env) error {
					c, err := env.WarmCluster(cluster.New(cfg(i)))
					if err != nil {
						return err
					}
					out[i] = c.RunDetailed(reissue.SingleR{D: 2, Q: 0.1}).Duration
					return nil
				},
			}
		}
		return out, Run(points, Options{Workers: workers})
	}

	want, err := eval(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := eval(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: point %d = %v, sequential %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestFailedSweepSummaryNamesFailure: a failed sweep's final
// progress line must say which point failed, not render the
// success-shaped "n/N points in ..." summary as if the grid had
// merely been short.
func TestFailedSweepSummaryNamesFailure(t *testing.T) {
	boom := errors.New("bad point")
	for _, workers := range []int{1, 3} {
		var buf bytes.Buffer
		points := make([]Point, 8)
		for i := range points {
			i := i
			points[i] = Point{
				Label: fmt.Sprintf("grid/p%d", i),
				Run: func(*Env) error {
					if i == 5 {
						return boom
					}
					return nil
				},
			}
		}
		err := Run(points, Options{Workers: workers, Progress: &buf, Name: "demo"})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := buf.String()
		for _, want := range []string{"FAILED", "point 5 (grid/p5)"} {
			if !strings.Contains(out, want) {
				t.Errorf("workers=%d: failed-sweep summary missing %q:\n%s", workers, want, out)
			}
		}
		if strings.Contains(out, "points in ") {
			t.Errorf("workers=%d: failed sweep printed the success-shaped summary:\n%s", workers, out)
		}
	}
}

// TestProgressReportGuardsDegenerateElapsed: a report rendered with
// no measurable elapsed time (first tick on a coarse clock, or a
// clock step) must not print a negative/Inf/NaN rate or a negative
// ETA.
func TestProgressReportGuardsDegenerateElapsed(t *testing.T) {
	var buf bytes.Buffer
	p := &progress{w: &buf, name: "demo", total: 10, start: time.Now().Add(time.Minute)}
	p.done()
	p.report(false)
	p.report(true)
	out := buf.String()
	for _, bad := range []string{"(-", "ETA -", "NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Errorf("degenerate-elapsed report contains %q:\n%s", bad, out)
		}
	}
	if !strings.Contains(out, "ETA ?") {
		t.Errorf("unmeasurable rate should leave the ETA unknown:\n%s", out)
	}
}

func TestProgressReporting(t *testing.T) {
	var buf bytes.Buffer
	items := make([]int, 30)
	_, err := Map(items, Options{
		Workers: 2, Progress: &buf, Name: "demo", ProgressEvery: time.Millisecond,
	}, func(_ *Env, i, _ int) (int, error) {
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo: 30/30 points in ") {
		t.Fatalf("missing final summary:\n%s", out)
	}
	if !strings.Contains(out, "ETA") {
		t.Fatalf("missing periodic ETA line:\n%s", out)
	}
}

// Chunks must cover [0, n) exactly once with contiguous pieces, for
// ranges shorter and longer than its piece count, and report a
// panicking piece as an error.
func TestChunksCoverRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, rangeChunks, 1000} {
		hits := make([]int, n)
		err := Chunks(n, func(lo, hi int) {
			if lo >= hi {
				panic(fmt.Sprintf("empty piece [%d,%d)", lo, hi))
			}
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d evaluated %d times", n, i, h)
			}
		}
	}
	err := Chunks(100, func(lo, hi int) {
		if lo <= 50 && 50 < hi {
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking piece: %v", err)
	}
}
