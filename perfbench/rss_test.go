package main

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// The windows start after the watch does, and a large allocation made
// while it runs shows in them.
func TestRSSWindowsSeeAllocation(t *testing.T) {
	base, err := hwmMB()
	if err != nil {
		t.Skip("no VmHWM:", err)
	}
	w, err := watchRSS(20 * time.Millisecond)
	if err != nil {
		t.Skip("cannot reset VmHWM:", err)
	}
	big := make([]byte, 64<<20)
	for i := range big {
		big[i] = 1
	}
	time.Sleep(60 * time.Millisecond)
	runtime.KeepAlive(big)
	peaks, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) < 2 {
		t.Fatalf("%d windows in 60 ms of 20 ms windows", len(peaks))
	}
	if top := slices.Max(peaks); top < base+48 {
		t.Errorf("largest window peak %.1f MB, want at least %.1f with 64 MB touched", top, base+48)
	}
}
