package search

import (
	"reflect"
	"testing"

	"stburst/internal/core"
)

func TestMineWindowsParMatchesSequential(t *testing.T) {
	col := testCollection(t)
	want := mineWindows(col, core.STLocalOptions{}, 1)
	for _, workers := range []int{2, 4, 0} {
		got := mineWindows(col, core.STLocalOptions{}, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: parallel windows differ from sequential", workers)
		}
	}
}

func TestMineCombPatternsParMatchesSequential(t *testing.T) {
	col := testCollection(t)
	want := mineCombs(col, core.STCombOptions{}, 1)
	got := mineCombs(col, core.STCombOptions{}, 3)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel comb patterns differ from sequential")
	}
}

func TestMineTemporalParMatchesSequential(t *testing.T) {
	col := testCollection(t)
	want := mineTemporal(col, nil, 1)
	got := mineTemporal(col, nil, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel temporal intervals differ from sequential")
	}
}

func TestTermsMinedCounter(t *testing.T) {
	col := testCollection(t)
	before := TermsMined()
	mineWindows(col, core.STLocalOptions{}, 2)
	delta := TermsMined() - before
	if want := int64(len(col.Terms())); delta != want {
		t.Fatalf("counter advanced by %d, want %d (one per vocabulary term)", delta, want)
	}
}
