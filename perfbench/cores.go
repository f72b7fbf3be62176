package main

import (
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/sched"
	"repro/internal/stats"
)

// measureCores times the two pure cores both worlds share: the
// discrete-event engine (schedule and fire) and the scheduling queue
// (Push+Pop under RoundRobin). Each is a median over repeated batches.
func measureCores(r *report) error {
	const events, reps = 10000, 21
	s := des.New()
	cb := func(now float64, arg int, x float64) {}
	var perEvent []float64
	for k := 0; k < reps; k++ {
		s.Reset()
		rng := stats.NewRNG(uint64(k) + 1)
		t0 := time.Now()
		for j := 0; j < events; j++ {
			s.AtArg(rng.Float64()*1000, cb, j, 0)
		}
		s.Run()
		perEvent = append(perEvent, float64(time.Since(t0).Nanoseconds())/events)
		if s.Fired() != events {
			return fmt.Errorf("des fired %d events, want %d", s.Fired(), events)
		}
	}
	r.add("des.ns_per_event", median(perEvent), "ns", reps*events, "schedule+fire on a reused engine")

	const batch, rounds = 64, 2000
	q, err := sched.NewQueue[int](sched.Config{Discipline: sched.RoundRobin})
	if err != nil {
		return err
	}
	var perOp []float64
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		for round := 0; round < rounds; round++ {
			for j := 0; j < batch; j++ {
				q.Push(j, j%4 == 0, j%20)
			}
			for j := 0; j < batch; j++ {
				if _, ok := q.Pop(); !ok {
					return fmt.Errorf("sched queue ran dry")
				}
			}
		}
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/(batch*rounds))
	}
	r.add("sched.ns_per_op", median(perOp), "ns", reps*batch*rounds, "Push+Pop pair, RoundRobin over 20 connections")
	return nil
}
