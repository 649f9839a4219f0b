package corpusio

import (
	"bytes"
	"encoding/json"
	"maps"
	"testing"

	"stburst/internal/gen"
)

// TestExportImportPreservesSurfaces generates a small Topix corpus with
// retained counts, serializes it in the stgen JSONL format, loads it
// back, and verifies the frequency surfaces the miners consume are
// identical.
func TestExportImportPreservesSurfaces(t *testing.T) {
	tp, err := gen.NewTopix(gen.TopixConfig{Seed: 5, WeeklyArticles: 0.5, Vocab: 200, RetainCounts: true})
	if err != nil {
		t.Fatal(err)
	}
	col := tp.Col

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	h := Header{Kind: "topix", Timeline: col.Length()}
	for i := 0; i < col.NumStreams(); i++ {
		h.Streams = append(h.Streams, col.Stream(i).Name)
	}
	if err := enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < col.NumDocs(); id++ {
		d := col.Doc(id)
		counts := make(map[string]int, len(d.Counts))
		for term, n := range d.Counts {
			counts[col.Dict().Term(term)] = n
		}
		if err := enc.Encode(DocLine{
			Stream: col.Stream(d.Stream).Name,
			Time:   d.Time,
			Counts: counts,
			Event:  tp.Labels[id],
		}); err != nil {
			t.Fatal(err)
		}
	}

	got, labels, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != col.NumDocs() {
		t.Fatalf("docs %d, want %d", got.NumDocs(), col.NumDocs())
	}
	for i, l := range labels {
		if l != tp.Labels[i] {
			t.Fatalf("label %d differs", i)
		}
	}
	// Spot-check several term surfaces end to end.
	for _, ev := range []int{5, 13, 17} {
		term := tp.QueryTerms[ev][0]
		name := col.Dict().Term(term)
		gotID, ok := got.Dict().Lookup(name)
		if !ok {
			t.Fatalf("term %q lost in round trip", name)
		}
		want := col.Surface(term)
		have := got.Surface(gotID)
		for x := range want {
			for i := range want[x] {
				if want[x][i] != have[x][i] {
					t.Fatalf("surface of %q differs at (%d,%d): %v vs %v",
						name, x, i, want[x][i], have[x][i])
				}
			}
		}
	}
}

// TestReloadedTopixMatchesGenerated: for seeds 1–3, a generated Topix
// corpus written in the stgen format and loaded back has the same
// stream locations as the generator's in-memory collection, and every
// document comes back with the same stream, time, counts and label.
// Generator and loader both place streams with gen.ProjectStreams, so
// the locations cannot depend on the generator's seed.
func TestReloadedTopixMatchesGenerated(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tp, err := gen.NewTopix(gen.TopixConfig{Seed: seed, WeeklyArticles: 0.2, Vocab: 150, TokensPerArticle: 6, RetainCounts: true})
		if err != nil {
			t.Fatal(err)
		}
		col := tp.Col
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		h := Header{Kind: "topix", Timeline: col.Length()}
		for i := 0; i < col.NumStreams(); i++ {
			h.Streams = append(h.Streams, col.Stream(i).Name)
		}
		if err := enc.Encode(h); err != nil {
			t.Fatal(err)
		}
		lines := make([]DocLine, col.NumDocs())
		for id := range lines {
			d := col.Doc(id)
			counts := make(map[string]int, len(d.Counts))
			for term, n := range d.Counts {
				counts[col.Dict().Term(term)] = n
			}
			lines[id] = DocLine{Stream: col.Stream(d.Stream).Name, Time: d.Time, Counts: counts, Event: tp.Labels[id]}
			if err := enc.Encode(lines[id]); err != nil {
				t.Fatal(err)
			}
		}

		got, labels, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumStreams() != col.NumStreams() || got.NumDocs() != col.NumDocs() {
			t.Fatalf("seed %d: reloaded %d streams and %d docs, generated %d and %d",
				seed, got.NumStreams(), got.NumDocs(), col.NumStreams(), col.NumDocs())
		}
		for i := 0; i < col.NumStreams(); i++ {
			if g, w := got.Stream(i), col.Stream(i); g != w {
				t.Fatalf("seed %d: stream %d reloaded as %+v, generated %+v", seed, i, g, w)
			}
		}
		// Load keeps no per-document count maps; rebuild them from the
		// postings.
		counts := make([]map[string]int, got.NumDocs())
		for _, term := range got.Terms() {
			for _, p := range got.Postings(term) {
				if counts[p.Doc] == nil {
					counts[p.Doc] = make(map[string]int)
				}
				counts[p.Doc][got.Dict().Term(term)] = int(p.Count)
			}
		}
		for id, want := range lines {
			d := got.Doc(id)
			if d.Stream != col.Doc(id).Stream || d.Time != want.Time || labels[id] != want.Event || !maps.Equal(counts[id], want.Counts) {
				t.Fatalf("seed %d: document %d reloaded as stream %d time %d label %d counts %v, generated %+v",
					seed, id, d.Stream, d.Time, labels[id], counts[id], want)
			}
		}
	}
}
