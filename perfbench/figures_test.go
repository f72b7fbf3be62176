package main

import (
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// The digest is the one TestFigureGoldens records: Figure 2a
// regenerated at the goldens' scale matches its golden line.
func TestDigestMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a figure")
	}
	want, err := expectedDigests(goldenScale, filepath.Join("..", goldensPath))
	if err != nil {
		t.Fatal(err)
	}
	out, err := experiments.RunJobs(goldenScale, experiments.Figure2aJob(goldenScale))
	if err != nil {
		t.Fatal(err)
	}
	tab := out[0][0]
	if tab.ID != "2a" {
		t.Fatalf("regenerated table %q, want 2a", tab.ID)
	}
	got := map[string]string{tab.ID: digestTable(tab)}
	if bad := checkDigests(got, want); len(bad) > 0 {
		t.Fatalf("digest does not match the golden: %v", bad)
	}
	tab.Rows[0][0] += 1e-12
	if bad := checkDigests(map[string]string{tab.ID: digestTable(tab)}, want); len(bad) != 1 {
		t.Fatalf("a table changed in its last bit still matches: %v", bad)
	}
}

func TestReferenceCoversEveryTable(t *testing.T) {
	ref, err := expectedDigests(experiments.TestScale(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 32 {
		t.Fatalf("reference holds %d digests, want the 32 tables of -fig all", len(ref))
	}
	if _, err := expectedDigests(experiments.DefaultScale(), ""); err == nil {
		t.Fatal("a scale with no recorded digests was accepted")
	}
	if bad := checkDigests(map[string]string{"nope": "00"}, ref); len(bad) != 1 {
		t.Fatalf("an unknown table passed the check: %v", bad)
	}
}
