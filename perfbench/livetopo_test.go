package main

import (
	"testing"

	"repro/internal/kvstore"
)

func TestCheckAnswer(t *testing.T) {
	for _, c := range []struct {
		name string
		v    any
		hit  bool
		want bool
	}{
		{"cache hit", 7, true, true},
		{"cache hit, wrong count", 6, true, false},
		{"cache answer on a miss", 7, false, false},
		{"shard partials", []any{3.0, 4.0}, false, true},
		{"shard partials, wrong sum", []any{3.0, 3.0}, false, false},
		{"store answer on a hit", []any{3.0, 4.0}, true, false},
		{"malformed partial", []any{3.0, "4"}, false, false},
		{"nil", nil, false, false},
	} {
		if got := checkAnswer(c.v, 7, c.hit); got != c.want {
			t.Errorf("%s: checkAnswer = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMergeCount(t *testing.T) {
	if n := mergeCount(kvstore.Set{1, 3, 5, 7}, kvstore.Set{2, 3, 4, 7, 9}); n != 2 {
		t.Fatalf("mergeCount = %d, want 2", n)
	}
	if n := mergeCount(nil, kvstore.Set{1}); n != 0 {
		t.Fatalf("mergeCount with an empty set = %d, want 0", n)
	}
}
