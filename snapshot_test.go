package stburst

// Round-trip tests for the persistence + serving layer, through the
// one-member bundle a single-kind store saves: a saved pattern index must
// reload with a byte-identical canonical fingerprint for all three
// pattern kinds, reject damaged input and collections it does not fit,
// and answer searches exactly like the freshly mined index it came from.

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

// saveOne serializes ix as the one-member bundle of a store holding
// nothing else.
func saveOne(tb testing.TB, c *Collection, ix *PatternIndex) []byte {
	tb.Helper()
	s := newStore(c)
	if err := s.Replace(ix); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		tb.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// loadOne loads a one-member bundle into c and returns its index.
func loadOne(data []byte, c *Collection) (*PatternIndex, error) {
	s, err := LoadStore(bytes.NewReader(data), c)
	if err != nil {
		return nil, err
	}
	return s.Resident()[0], nil
}

// TestPatternIndexSaveLoadFingerprint is the acceptance check of the
// persistence subsystem: for every kind, save → load → Fingerprint() is
// byte-identical to the freshly mined index.
func TestPatternIndexSaveLoadFingerprint(t *testing.T) {
	c := synthCollection(t, 8, 40, 12)
	for kind, mined := range mineEachKind(t, c) {
		t.Run(kind, func(t *testing.T) {
			if mined.NumPatterns() == 0 {
				t.Fatalf("corpus mined zero %s patterns; test corpus too small", kind)
			}
			loaded, err := loadOne(saveOne(t, c, mined), c)
			if err != nil {
				t.Fatalf("LoadStore: %v", err)
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
// index and expects LoadStore to reject both.
func TestLoadPatternIndexRejectsDamage(t *testing.T) {
	c := synthCollection(t, 6, 30, 9)
	full := saveOne(t, c, mustMine(c, KindRegional, nil))

	if _, err := loadOne(full[:len(full)/2], c); err == nil {
		t.Error("truncated bundle loaded without error")
	}
	corrupt := bytes.Clone(full)
	corrupt[len(corrupt)/2] ^= 0xff
	if _, err := loadOne(corrupt, c); err == nil {
		t.Error("corrupted bundle loaded without error")
	}
	if _, err := loadOne([]byte("junk"), c); err == nil {
		t.Error("junk input loaded without error")
	}
}

// TestLoadPatternIndexForeignCollection loads a saved index into a
// collection missing its vocabulary and expects an error (it was mined
// from a different corpus).
func TestLoadPatternIndexForeignCollection(t *testing.T) {
	c := synthCollection(t, 6, 30, 9)
	full := saveOne(t, c, mustMine(c, KindRegional, nil))
	other := NewCollection([]StreamInfo{{Name: "solo"}}, 4)
	if _, err := other.AddText(0, 0, "completely unrelated vocabulary"); err != nil {
		t.Fatal(err)
	}
	if _, err := loadOne(full, other); err == nil {
		t.Error("bundle loaded into a foreign collection without error")
	}
}

// TestLoadedIndexServesLikeMined checks the serving path end to end: the
// loaded index answers per-term lookups and TA-backed searches exactly
// like the index it was saved from, without re-mining anything.
func TestLoadedIndexServesLikeMined(t *testing.T) {
	c := synthCollection(t, 8, 40, 12)
	mined := mustMineStore(t, c, nil, KindRegional)
	var buf bytes.Buffer
	if err := mined.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(&buf, c)
	if err != nil {
		t.Fatal(err)
	}

	for _, term := range mined.Index(KindRegional).Terms() {
		if !equalWindows(mined.Index(KindRegional).RegionalPatterns(term), loaded.Index(KindRegional).RegionalPatterns(term)) {
			t.Fatalf("term %q: loaded patterns differ from mined", term)
		}
	}

	queries := []string{"topic000", "topic003 surge", "topic006", "nosuchterm"}
	for _, q := range queries {
		want := queryHits(t, mined, Query{Text: q, K: 10})
		got := queryHits(t, loaded, Query{Text: q, K: 10})
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

// tinyCorpus is a JSONL corpus with one two-week earthquake burst.
var tinyCorpus = []string{
	`{"kind":"topix","streams":["Peru","Japan"],"timeline":6}`,
	`{"stream":"Peru","time":1,"counts":{"earthquake":4,"rescue":2},"event":1}`,
	`{"stream":"Peru","time":2,"counts":{"earthquake":6},"event":1}`,
	`{"stream":"Japan","time":1,"counts":{"earthquake":1},"event":0}`,
	`{"stream":"Japan","time":4,"counts":{"trade":3},"event":0}`,
}

// loadLines rebuilds a collection from corpus lines.
func loadLines(t *testing.T, lines []string) *Collection {
	t.Helper()
	c, err := LoadCorpus(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLoadCorpusRoundTripsSnapshots ties the CLI pipeline together in
// process: a corpus loaded twice through LoadCorpus interns identically,
// so an index saved against one load verifies against the other.
func TestLoadCorpusRoundTripsSnapshots(t *testing.T) {
	c1, c2 := loadLines(t, tinyCorpus), loadLines(t, tinyCorpus)
	mined := mustMine(c1, KindTemporal, nil)
	loaded, err := loadOne(saveOne(t, c1, mined), c2)
	if err != nil {
		t.Fatalf("bundle failed to load into a re-loaded corpus: %v", err)
	}
	if got, want := loaded.Fingerprint(), mined.Fingerprint(); got != want {
		t.Errorf("fingerprint across corpus reloads: %s, want %s", got, want)
	}
}

// TestLoadStoreReinternsTerms: patterns are stored by term string, so an
// index loads into a collection whose dictionary interned the same
// vocabulary in another order — the documents arrive reversed — and
// equals the index mined there.
func TestLoadStoreReinternsTerms(t *testing.T) {
	reversed := []string{tinyCorpus[0]}
	for i := len(tinyCorpus) - 1; i > 0; i-- {
		reversed = append(reversed, tinyCorpus[i])
	}
	c1, c2 := loadLines(t, tinyCorpus), loadLines(t, reversed)
	mined := mustMine(c1, KindTemporal, nil)
	if mined.NumPatterns() == 0 {
		t.Fatal("corpus mined zero temporal patterns")
	}
	there := mustMine(c2, KindTemporal, nil)
	if there.Fingerprint() == mined.Fingerprint() {
		t.Fatal("both loads interned alike; the test exercises nothing")
	}
	loaded, err := loadOne(saveOne(t, c1, mined), c2)
	if err != nil {
		t.Fatalf("LoadStore into a reordered dictionary: %v", err)
	}
	if got, want := loaded.Fingerprint(), there.Fingerprint(); got != want {
		t.Errorf("re-interned fingerprint %s, want the %s mined in place", got, want)
	}
}

// TestLoadStoreRejectsStructuralMisfit: a collection that knows every
// stored term but is too short for the stored timeframes is refused at
// load, not discovered as an index-out-of-range on the serving path.
func TestLoadStoreRejectsStructuralMisfit(t *testing.T) {
	c := loadLines(t, tinyCorpus)
	mined := mustMine(c, KindTemporal, nil)
	if mined.NumPatterns() == 0 {
		t.Fatal("corpus mined zero temporal patterns")
	}
	short := NewCollection([]StreamInfo{{Name: "Peru"}, {Name: "Japan"}}, 1)
	if _, err := short.AddText(0, 0, "earthquake rescue trade"); err != nil {
		t.Fatal(err)
	}
	if _, err := loadOne(saveOne(t, c, mined), short); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("LoadStore into a one-week collection: %v, want a does-not-fit error", err)
	}
}
