package stburst

// Round-trip tests for the snapshot + serving layer: a saved pattern
// index must reload with a byte-identical canonical fingerprint for all
// three pattern kinds, reject damaged input, and answer searches exactly
// like the freshly mined index it came from.

import (
	"bytes"
	"strings"
	"testing"
)

// mineEachKind returns a freshly mined index of every pattern kind over
// the shared deterministic corpus.
func mineEachKind(tb testing.TB, c *Collection) map[string]*PatternIndex {
	tb.Helper()
	return map[string]*PatternIndex{
		"regional":      mustMine(c, KindRegional, nil),
		"combinatorial": mustMine(c, KindCombinatorial, nil),
		"temporal":      mustMine(c, KindTemporal, nil),
	}
}

// TestPatternIndexSaveLoadFingerprint is the acceptance check of the
// snapshot subsystem: for every kind, save → load → Fingerprint() is
// byte-identical to the freshly mined index.
func TestPatternIndexSaveLoadFingerprint(t *testing.T) {
	c := synthCollection(t, 8, 40, 12)
	for kind, mined := range mineEachKind(t, c) {
		t.Run(kind, func(t *testing.T) {
			if mined.NumPatterns() == 0 {
				t.Fatalf("corpus mined zero %s patterns; test corpus too small", kind)
			}
			var buf bytes.Buffer
			if err := mined.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			loaded, err := LoadPatternIndex(bytes.NewReader(buf.Bytes()), c)
			if err != nil {
				t.Fatalf("LoadPatternIndex: %v", err)
			}
			if got, want := loaded.Fingerprint(), mined.Fingerprint(); got != want {
				t.Errorf("loaded fingerprint %s, want mined %s", got, want)
			}
			if got, want := loaded.Kind(), mined.Kind(); got != want {
				t.Errorf("loaded kind %s, want %s", got, want)
			}
			if got, want := loaded.NumTerms(), mined.NumTerms(); got != want {
				t.Errorf("loaded %d terms, want %d", got, want)
			}
			if got, want := loaded.NumPatterns(), mined.NumPatterns(); got != want {
				t.Errorf("loaded %d patterns, want %d", got, want)
			}
		})
	}
}

// TestLoadPatternIndexRejectsDamage truncates and corrupts a saved
// snapshot and expects LoadPatternIndex to reject both.
func TestLoadPatternIndexRejectsDamage(t *testing.T) {
	c := synthCollection(t, 6, 30, 9)
	var buf bytes.Buffer
	if err := mustMine(c, KindRegional, nil).Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, err := LoadPatternIndex(bytes.NewReader(full[:len(full)/2]), c); err == nil {
		t.Error("truncated snapshot loaded without error")
	}
	corrupt := bytes.Clone(full)
	corrupt[len(corrupt)/2] ^= 0xff
	if _, err := LoadPatternIndex(bytes.NewReader(corrupt), c); err == nil {
		t.Error("corrupted snapshot loaded without error")
	}
	if _, err := LoadPatternIndex(strings.NewReader("junk"), c); err == nil {
		t.Error("junk input loaded without error")
	}
}

// TestLoadPatternIndexForeignCollection loads a snapshot into a
// collection missing the snapshot's vocabulary and expects an error
// (the snapshot was mined from a different corpus).
func TestLoadPatternIndexForeignCollection(t *testing.T) {
	c := synthCollection(t, 6, 30, 9)
	var buf bytes.Buffer
	if err := mustMine(c, KindRegional, nil).Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := NewCollection([]StreamInfo{{Name: "solo"}}, 4)
	if _, err := other.AddText(0, 0, "completely unrelated vocabulary"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPatternIndex(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("snapshot loaded into a foreign collection without error")
	}
}

// TestLoadedIndexServesLikeMined checks the serving path end to end: the
// loaded index answers per-term lookups and TA-backed searches exactly
// like the index it was saved from, without re-mining anything.
func TestLoadedIndexServesLikeMined(t *testing.T) {
	c := synthCollection(t, 8, 40, 12)
	mined := mustMine(c, KindRegional, nil)
	var buf bytes.Buffer
	if err := mined.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPatternIndex(bytes.NewReader(buf.Bytes()), c)
	if err != nil {
		t.Fatal(err)
	}

	for _, term := range mined.Terms() {
		if !equalWindows(mined.RegionalPatterns(term), loaded.RegionalPatterns(term)) {
			t.Fatalf("term %q: loaded patterns differ from mined", term)
		}
	}

	queries := []string{"topic000", "topic003 surge", "topic006", "nosuchterm"}
	for _, q := range queries {
		want := mined.Search(q, 10)
		got := loaded.Search(q, 10)
		if len(got) != len(want) {
			t.Fatalf("query %q: loaded returned %d hits, mined %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Doc.ID != want[i].Doc.ID || got[i].Score != want[i].Score {
				t.Errorf("query %q hit %d: loaded %+v, mined %+v", q, i, got[i], want[i])
			}
		}
	}
}

// TestLoadCorpusRoundTripsSnapshots ties the CLI pipeline together in
// process: a corpus loaded twice through LoadCorpus interns identically,
// so a snapshot saved against one load verifies against the other.
func TestLoadCorpusRoundTripsSnapshots(t *testing.T) {
	corpus := `{"kind":"topix","streams":["Peru","Japan"],"timeline":6}
{"stream":"Peru","time":1,"counts":{"earthquake":4,"rescue":2},"event":1}
{"stream":"Peru","time":2,"counts":{"earthquake":6},"event":1}
{"stream":"Japan","time":1,"counts":{"earthquake":1},"event":0}
{"stream":"Japan","time":4,"counts":{"trade":3},"event":0}
`
	c1, err := LoadCorpus(strings.NewReader(corpus))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCorpus(strings.NewReader(corpus))
	if err != nil {
		t.Fatal(err)
	}
	mined := mustMine(c1, KindTemporal, nil)
	var buf bytes.Buffer
	if err := mined.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPatternIndex(bytes.NewReader(buf.Bytes()), c2)
	if err != nil {
		t.Fatalf("snapshot failed to load into a re-loaded corpus: %v", err)
	}
	if got, want := loaded.Fingerprint(), mined.Fingerprint(); got != want {
		t.Errorf("fingerprint across corpus reloads: %s, want %s", got, want)
	}
}
