package stream

import (
	"math"
	"testing"

	"stburst/internal/geo"
)

func twoStreams() *Collection {
	streams := []Info{
		{Name: "A", Location: geo.Point{X: 0, Y: 0}},
		{Name: "B", Location: geo.Point{X: 5, Y: 5}},
	}
	return NewCollection(streams, 4)
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.ID("quake")
	b := d.ID("flood")
	if a == b {
		t.Fatal("distinct terms must get distinct IDs")
	}
	if got := d.ID("quake"); got != a {
		t.Fatalf("re-interning returned %d, want %d", got, a)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Term(a) != "quake" || d.Term(b) != "flood" {
		t.Fatal("Term round-trip failed")
	}
	if id, ok := d.Lookup("quake"); !ok || id != a {
		t.Fatalf("Lookup = (%d,%v)", id, ok)
	}
	if _, ok := d.Lookup("absent"); ok {
		t.Fatal("Lookup of absent term should report false")
	}
}

func TestAddTokensAndSurface(t *testing.T) {
	c := twoStreams()
	if _, err := c.AddTokens(0, 0, []string{"quake", "quake", "news"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTokens(0, 2, []string{"quake"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTokens(1, 2, []string{"quake", "flood"}); err != nil {
		t.Fatal(err)
	}
	quake, _ := c.Dict().Lookup("quake")
	s := c.Surface(quake)
	if len(s) != 2 || len(s[0]) != 4 {
		t.Fatalf("surface dims %dx%d, want 2x4", len(s), len(s[0]))
	}
	want := [][]float64{{2, 0, 1, 0}, {0, 0, 1, 0}}
	for x := range want {
		for i := range want[x] {
			if s[x][i] != want[x][i] {
				t.Fatalf("surface[%d][%d] = %v, want %v", x, i, s[x][i], want[x][i])
			}
		}
	}
}

func TestAddCountsValidation(t *testing.T) {
	c := twoStreams()
	if _, err := c.AddCounts(-1, 0, nil); err == nil {
		t.Fatal("negative stream should error")
	}
	if _, err := c.AddCounts(2, 0, nil); err == nil {
		t.Fatal("out-of-range stream should error")
	}
	if _, err := c.AddCounts(0, -1, nil); err == nil {
		t.Fatal("negative time should error")
	}
	if _, err := c.AddCounts(0, 4, nil); err == nil {
		t.Fatal("out-of-range time should error")
	}
	// Term counts are stored as int32: every door rejects what would not
	// fit, and a count below 1 is no occurrence.
	for _, n := range []int{0, -5, math.MaxInt32 + 1} {
		if _, err := c.AddCounts(0, 0, map[int]int{0: n}); err == nil {
			t.Fatalf("AddCounts accepted term count %d", n)
		}
		if _, err := c.AddStringCounts(0, 0, map[string]int{"x": n}); err == nil {
			t.Fatalf("AddStringCounts accepted term count %d", n)
		}
		batch := []AppendDoc{{Counts: map[string]int{"ok": 1}}, {Counts: map[string]int{"x": n}}}
		if err := c.CheckBatch(batch); err == nil {
			t.Fatalf("CheckBatch accepted term count %d", n)
		}
		if _, _, err := c.Append(batch); err == nil {
			t.Fatalf("Append accepted term count %d", n)
		}
	}
	if c.NumDocs() != 0 || c.Dict().Len() != 0 {
		t.Fatalf("rejected documents left %d docs, %d terms behind", c.NumDocs(), c.Dict().Len())
	}
	if _, err := c.AddStringCounts(1, 3, map[string]int{"x": math.MaxInt32}); err != nil {
		t.Fatalf("the largest storable count was rejected: %v", err)
	}
	if got := c.Surface(0)[1][3]; got != math.MaxInt32 {
		t.Fatalf("surface = %v, want %d", got, math.MaxInt32)
	}
}

func TestResolve(t *testing.T) {
	c := twoStreams()
	if x, err := c.Resolve(c.Stream(1).Name, 3); err != nil || x != 1 {
		t.Fatalf("Resolve = %d, %v, want stream 1", x, err)
	}
	if _, err := c.Resolve("atlantis", 0); err == nil {
		t.Fatal("unknown stream name should error")
	}
	for _, tm := range []int{-1, 4} {
		if _, err := c.Resolve(c.Stream(0).Name, tm); err == nil {
			t.Fatalf("time %d should error", tm)
		}
	}
}

func TestMergedSeries(t *testing.T) {
	c := twoStreams()
	term := c.Dict().ID("quake")
	mustAdd(t, c, 0, 0, map[int]int{term: 2})
	mustAdd(t, c, 1, 0, map[int]int{term: 3})
	mustAdd(t, c, 1, 3, map[int]int{term: 1})
	got := c.MergedSeries(term)
	want := []float64{5, 0, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTermDocsAndDocFreq(t *testing.T) {
	c := twoStreams()
	term := c.Dict().ID("quake")
	id0, _ := c.AddCounts(0, 0, map[int]int{term: 2})
	id1, _ := c.AddCounts(1, 1, map[int]int{term: 7})
	ids, freqs := c.TermDocs(term)
	if len(ids) != 2 || ids[0] != id0 || ids[1] != id1 {
		t.Fatalf("ids = %v, want [%d %d]", ids, id0, id1)
	}
	if freqs[0] != 2 || freqs[1] != 7 {
		t.Fatalf("freqs = %v, want [2 7]", freqs)
	}
	if ids, _ := c.TermDocs(999); len(ids) != 0 {
		t.Fatalf("unknown term has documents %v, want none", ids)
	}
}

func TestDocAccessors(t *testing.T) {
	c := twoStreams()
	term := c.Dict().ID("x")
	id, _ := c.AddCounts(1, 2, map[int]int{term: 1})
	if c.NumDocs() != 1 {
		t.Fatalf("NumDocs = %d, want 1", c.NumDocs())
	}
	d := c.Doc(id)
	if d.Stream != 1 || d.Time != 2 || d.Counts[term] != 1 {
		t.Fatalf("Doc = %+v", d)
	}
	if c.NumStreams() != 2 || c.Length() != 4 {
		t.Fatalf("dims %d, %d", c.NumStreams(), c.Length())
	}
	if c.Stream(0).Name != "A" {
		t.Fatal("Stream(0) should be A")
	}
	pts := c.Points()
	if len(pts) != 2 || pts[1] != (geo.Point{X: 5, Y: 5}) {
		t.Fatalf("Points = %v", pts)
	}
}

func TestTerms(t *testing.T) {
	c := twoStreams()
	a := c.Dict().ID("a")
	b := c.Dict().ID("b")
	mustAdd(t, c, 0, 0, map[int]int{a: 1, b: 2})
	terms := c.Terms()
	if len(terms) != 2 {
		t.Fatalf("Terms = %v, want 2 entries", terms)
	}
	seen := map[int]bool{}
	for _, id := range terms {
		seen[id] = true
	}
	if !seen[a] || !seen[b] {
		t.Fatalf("Terms missing entries: %v", terms)
	}
}

func TestSurfaceUnknownTerm(t *testing.T) {
	c := twoStreams()
	s := c.Surface(42)
	for x := range s {
		for i := range s[x] {
			if s[x][i] != 0 {
				t.Fatal("surface of unknown term should be all-zero")
			}
		}
	}
}

func mustAdd(t *testing.T, c *Collection, stream, time int, counts map[int]int) {
	t.Helper()
	if _, err := c.AddCounts(stream, time, counts); err != nil {
		t.Fatal(err)
	}
}
