package main

import (
	"context"
	"testing"
	"time"
)

// A generator that wakes late delays the request exactly as a stalled
// client would: the query is charged from its due instant, so its
// latency includes the lateness, and queries that fell due during the
// stall are late too.
func TestOpenLoopChargesLatenessToTheRequest(t *testing.T) {
	const stall = 30 * time.Millisecond
	offsets := []time.Duration{0, 2 * time.Millisecond, 4 * time.Millisecond, 60 * time.Millisecond}
	sleeps := 0
	sleep := func(d time.Duration) {
		sleeps++
		if sleeps == 1 { // the wait for query 1
			d += stall
		}
		time.Sleep(d)
	}
	const work = 5 * time.Millisecond
	tm := openLoop(context.Background(), offsets, sleep, func(ctx context.Context, i int, due time.Time) error {
		time.Sleep(work)
		return nil
	})
	for i, x := range tm {
		if x.latency() != x.done.Sub(x.due) || x.latency() < x.late()+work {
			t.Errorf("query %d: latency %v, late %v: latency must run from the due instant and include the lateness", i, x.latency(), x.late())
		}
	}
	for _, i := range []int{1, 2} {
		if tm[i].late() < stall-offsets[i]+offsets[1] {
			t.Errorf("query %d issued %v late, want at least the stall", i, tm[i].late())
		}
		if tm[i].latency() < stall {
			t.Errorf("query %d latency %v does not count the %v stall", i, tm[i].latency(), stall)
		}
	}
	if tm[0].late() > stall/2 || tm[3].late() > stall/2 {
		t.Errorf("on-time queries reported late: %v, %v", tm[0].late(), tm[3].late())
	}
}

func TestOpenLoopStopsIssuingWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	offsets := []time.Duration{0, time.Millisecond, 50 * time.Millisecond}
	tm := openLoop(ctx, offsets, time.Sleep, func(ctx context.Context, i int, due time.Time) error {
		if i == 1 {
			cancel()
		}
		return nil
	})
	if tm[0].issued.IsZero() || tm[1].issued.IsZero() || !tm[2].issued.IsZero() {
		t.Fatalf("issued = %v %v %v, want the first two only", !tm[0].issued.IsZero(), !tm[1].issued.IsZero(), !tm[2].issued.IsZero())
	}
}

func TestPoissonOffsetsAreSeeded(t *testing.T) {
	a, b, c := poissonOffsets(100, 300, 7), poissonOffsets(100, 300, 7), poissonOffsets(100, 300, 8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, offset %d differs", i)
		}
		same = same && a[i] == c[i]
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("offsets not ascending at %d", i)
		}
	}
	if same {
		t.Fatal("different seeds gave the same schedule")
	}
}
