package stburst

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"stburst/internal/corpusio"
)

// This file tests save-time WAL pruning (WithWALPrune): a save absorbs
// the sealed batches' documents into the corpus file and deletes the
// sealed segments, and every reboot afterwards — including one from a
// crash between the absorb and the prune — recovers the store
// bit-identically from corpus + bundle + whatever the log still holds.
// TestIngestModel draws the same paths at random; the tests here pin
// hand-picked ones, the refusal to absorb into a foreign corpus, and
// a pruning save right after an ingest whose context ended mid-way.

// writePruneCorpus writes a small topix corpus file mirroring the
// twoBurstCollection shape: four streams, a 16-week timeline, ambient
// vocabulary everywhere and two regional earthquake bursts.
func writePruneCorpus(t *testing.T) string {
	t.Helper()
	streams := []string{"Peru", "Chile", "Japan", "Australia"}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(corpusio.Header{Kind: "topix", Streams: streams, Timeline: 16}); err != nil {
		t.Fatal(err)
	}
	doc := func(stream string, week int, counts map[string]int) {
		t.Helper()
		if err := enc.Encode(corpusio.DocLine{Stream: stream, Time: week, Counts: counts}); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 16; w++ {
		for _, s := range streams {
			doc(s, w, map[string]int{"news": 2, "report": 1})
		}
	}
	for w := 4; w <= 6; w++ {
		doc("Peru", w, map[string]int{"earthquake": 4, "rescue": 2})
		doc("Chile", w, map[string]int{"earthquake": 3})
	}
	for w := 10; w <= 12; w++ {
		doc("Japan", w, map[string]int{"earthquake": 5, "tsunami": 2})
	}
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func loadCorpusFile(t *testing.T, path string) *Collection {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := LoadCorpus(f)
	if err != nil {
		t.Fatalf("LoadCorpus(%s): %v", path, err)
	}
	return c
}

func loadBundleStore(t *testing.T, path string, c *Collection) *Store {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := LoadStore(f, c)
	if err != nil {
		t.Fatalf("LoadStore(%s): %v", path, err)
	}
	return s
}

// copyDirFiles snapshots a directory's regular files into a fresh temp
// directory — the "crashed here" disk image for recovery scenarios.
func copyDirFiles(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// countDocLines returns the number of document lines (everything after
// the header) the corpus file holds.
func countDocLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n - 1
}

// TestWALPruneRecoversBitIdentically is the pruning round trip: two
// logged ingests, a pruning save (absorb + delete), and three reboots —
// from the pruned log, from a second pruned save, and from a log
// snapshot taken as if the process crashed between the absorb and the
// prune (both copies of the batches on disk). Every reboot must equal
// the live store bit-for-bit.
func TestWALPruneRecoversBitIdentically(t *testing.T) {
	ctx := context.Background()
	corpus := writePruneCorpus(t)
	walDir := t.TempDir()
	bundle := filepath.Join(t.TempDir(), "store.bundle")
	baseDocs := countDocLines(t, corpus)

	c1 := loadCorpusFile(t, corpus)
	s1 := mustMineStore(t, c1, nil)
	w1 := mustOpenWAL(t, walDir, WithWALPrune(corpus))
	mustAttachWAL(t, s1, w1)
	mustIngest(t, s1, liveBatch())
	mustIngest(t, s1, secondBatch())

	// Snapshot the log as a crash between absorb and prune would leave
	// it: both batches still on disk alongside the absorbed corpus.
	crashDir := copyDirFiles(t, walDir)

	if err := s1.SaveFile(bundle); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	want := captureState(s1)
	if st, _ := s1.WALStats(); st.Segments != 1 || st.Batches != 0 {
		t.Fatalf("after pruning save: WALStats = %+v, want only an empty fresh segment", st)
	}
	if got := countDocLines(t, corpus); got != baseDocs+5 {
		t.Fatalf("corpus holds %d docs after absorption, want %d", got, baseDocs+5)
	}

	// Reboot 1: the pruned log has nothing to replay; the absorbed
	// corpus plus the bundle carry the whole store.
	c2 := loadCorpusFile(t, corpus)
	w2 := mustOpenWAL(t, walDir, WithWALPrune(corpus))
	rep, err := c2.ReplayWAL(ctx, w2)
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if rep.Batches != 0 || rep.Skipped != 0 {
		t.Fatalf("ReplayWAL = %+v, want an empty replay", rep)
	}
	s2 := loadBundleStore(t, bundle, c2)
	mustAttachWAL(t, s2, w2)
	assertState(t, "reboot after pruning save", s2, want)

	// The rebooted store keeps ingesting and pruning on the same log.
	mustIngest(t, s2, []IncomingDocument{{Stream: 0, Time: 15, Text: "aftershocks rattle harbor"}})
	if err := s2.SaveFile(bundle); err != nil {
		t.Fatalf("second SaveFile: %v", err)
	}
	if got := countDocLines(t, corpus); got != baseDocs+6 {
		t.Fatalf("corpus holds %d docs after the second absorption, want %d", got, baseDocs+6)
	}
	want2 := captureState(s2)

	// Reboot 2: after the second pruning save.
	c3 := loadCorpusFile(t, corpus)
	w3 := mustOpenWAL(t, walDir)
	if rep3, err := c3.ReplayWAL(ctx, w3); err != nil || rep3.Batches != 0 {
		t.Fatalf("ReplayWAL after second save = %+v, %v, want an empty replay", rep3, err)
	}
	s3 := loadBundleStore(t, bundle, c3)
	mustAttachWAL(t, s3, w3)
	assertState(t, "reboot after second pruning save", s3, want2)
	_ = w3.Close()

	// Reboot 3: the crash-between-absorb-and-prune image. The corpus
	// already contains the snapshot's two batches, so replay must skip
	// them rather than append duplicates, and the recovered store must
	// still match the live one exactly.
	c4 := loadCorpusFile(t, corpus)
	w4 := mustOpenWAL(t, crashDir, WithWALPrune(corpus))
	rep4, err := c4.ReplayWAL(ctx, w4)
	if err != nil {
		t.Fatalf("ReplayWAL over an absorbed log: %v", err)
	}
	if rep4.Skipped != 2 || rep4.Batches != 0 || rep4.Docs != 0 {
		t.Fatalf("ReplayWAL = %+v, want both batches skipped as absorbed", rep4)
	}
	s4 := loadBundleStore(t, bundle, c4)
	mustAttachWAL(t, s4, w4)
	assertState(t, "reboot from a crash between absorb and prune", s4, want2)
	_ = w4.Close()
	_ = w2.Close()
}

// ingestDuringWrite wraps a buffer so the first bundle byte written
// triggers one live Ingest — deterministically forcing the interleaving
// where a batch lands between Save's index snapshot (under writeMu) and
// the post-write rotation (Save serializes the bundle with no locks
// held, so ingestion continues underneath).
type ingestDuringWrite struct {
	buf  bytes.Buffer
	once sync.Once
	do   func()
}

func (w *ingestDuringWrite) Write(p []byte) (int, error) {
	w.once.Do(w.do)
	return w.buf.Write(p)
}

// TestWALPruneSaveIngestRace pins the absorption boundary: a batch
// ingested while Save is serializing the bundle is sealed by the save's
// rotation but must NOT be absorbed and pruned — the just-written
// bundle predates it, so after a crash replay would skip it (documents
// already in the corpus) and nothing would ever re-mine its dirty
// terms.
func TestWALPruneSaveIngestRace(t *testing.T) {
	ctx := context.Background()
	corpus := writePruneCorpus(t)
	walDir := t.TempDir()
	baseDocs := countDocLines(t, corpus)

	c1 := loadCorpusFile(t, corpus)
	s1 := mustMineStore(t, c1, nil)
	w1 := mustOpenWAL(t, walDir, WithWALPrune(corpus))
	mustAttachWAL(t, s1, w1)
	mustIngest(t, s1, liveBatch())

	iw := &ingestDuringWrite{}
	iw.do = func() { mustIngest(t, s1, secondBatch()) }
	if err := s1.Save(iw); err != nil {
		t.Fatalf("Save: %v", err)
	}
	want := captureState(s1)

	// Only the pre-snapshot batch was absorbed; the mid-save one must
	// still be logged, and its segment kept whole (pruning only removes
	// segments every frame of which the bundle covers).
	if st, _ := s1.WALStats(); st.Batches != 2 {
		t.Fatalf("WALStats after racing save = %+v, want both frames kept (the sealed segment spans the boundary)", st)
	}
	if got := countDocLines(t, corpus); got != baseDocs+3 {
		t.Fatalf("corpus holds %d docs after absorption, want %d (the pre-snapshot batch only)", got, baseDocs+3)
	}

	// Crash now: reboot from corpus + bundle + log. The absorbed batch
	// is skipped, the mid-save batch replays, and AttachWAL re-mines its
	// dirty terms — the recovered store must equal the live one exactly.
	c2 := loadCorpusFile(t, corpus)
	w2 := mustOpenWAL(t, walDir, WithWALPrune(corpus))
	rep, err := c2.ReplayWAL(ctx, w2)
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if rep.Skipped != 1 || rep.Batches != 1 {
		t.Fatalf("ReplayWAL = %+v, want the absorbed batch skipped and the mid-save batch replayed", rep)
	}
	s2, err := LoadStore(bytes.NewReader(iw.buf.Bytes()), c2)
	if err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	mustAttachWAL(t, s2, w2)
	assertState(t, "reboot after a mid-save ingest", s2, want)
	_ = w2.Close()
	_ = w1.Close()
}

// TestWALPruneRefusesForeignCorpus: absorption must abort — corpus file
// untouched, segments kept — when the prune path does not hold the very
// corpus the collection was loaded from.
func TestWALPruneRefusesForeignCorpus(t *testing.T) {
	corpusA := writePruneCorpus(t)
	// corpusB diverges from A by one extra document, so the logged
	// batches no longer abut its document count.
	corpusB := filepath.Join(t.TempDir(), "other.jsonl")
	data, err := os.ReadFile(corpusA)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := json.Marshal(corpusio.DocLine{Stream: "Peru", Time: 0, Counts: map[string]int{"extra": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corpusB, append(data, append(extra, '\n')...), 0o644); err != nil {
		t.Fatal(err)
	}
	wantDocs := countDocLines(t, corpusB)

	c1 := loadCorpusFile(t, corpusA)
	s1 := mustMineStore(t, c1, nil)
	w1 := mustOpenWAL(t, t.TempDir(), WithWALPrune(corpusB))
	mustAttachWAL(t, s1, w1)
	mustIngest(t, s1, liveBatch())

	var buf bytes.Buffer
	if err := s1.Save(&buf); err == nil || !strings.Contains(err.Error(), "refusing to absorb") {
		t.Fatalf("Save with a foreign prune path = %v, want a refusing-to-absorb error", err)
	}
	if got := countDocLines(t, corpusB); got != wantDocs {
		t.Fatalf("foreign corpus grew to %d docs, want untouched %d", got, wantDocs)
	}
	// The batch must still be logged: nothing was pruned.
	if st, _ := s1.WALStats(); st.Batches != 1 {
		t.Fatalf("WALStats after refused absorb = %+v, want the batch kept", st)
	}
	_ = w1.Close()
}

// TestWALPruneKeepsOwedRefresh: an ingest whose context ends past the
// commit point owes no refresh, so the pruning save right after it
// absorbs its batch into the corpus file, and a reboot from corpus and
// bundle alone equals both the live store and a from-scratch mine.
func TestWALPruneKeepsOwedRefresh(t *testing.T) {
	ctx := context.Background()
	corpus := writePruneCorpus(t)
	walDir := t.TempDir()
	bundle := filepath.Join(t.TempDir(), "store.bundle")

	s1 := mustMineStore(t, loadCorpusFile(t, corpus), nil)
	mustAttachWAL(t, s1, mustOpenWAL(t, walDir, WithWALPrune(corpus)))
	before := countDocLines(t, corpus)
	if _, err := s1.Ingest(&trippingContext{Context: ctx, after: 1}, liveBatch()); err != nil {
		t.Fatalf("tripped Ingest = %v, want the batch installed", err)
	}
	if err := s1.SaveFile(bundle); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	if st, _ := s1.WALStats(); st.Batches != 0 {
		t.Fatalf("WALStats after the save = %+v, want the batch absorbed", st)
	}
	if got, want := countDocLines(t, corpus), before+len(liveBatch()); got != want {
		t.Fatalf("corpus file holds %d docs after the save, want %d", got, want)
	}
	// Crash, then reboot from corpus + bundle + the emptied log.
	c2 := loadCorpusFile(t, corpus)
	w2 := mustOpenWAL(t, walDir, WithWALPrune(corpus))
	defer w2.Close()
	if rep, err := c2.ReplayWAL(ctx, w2); err != nil || rep != (ReplayResult{}) {
		t.Fatalf("ReplayWAL = %+v, %v, want nothing left to replay", rep, err)
	}
	s2 := loadBundleStore(t, bundle, c2)
	mustAttachWAL(t, s2, w2)
	assertState(t, "rebooted store", s2, captureState(s1))
	want := mustMineStore(t, c2, nil)
	for _, kind := range Kinds() {
		if s2.Index(kind).Fingerprint() != want.Index(kind).Fingerprint() {
			t.Errorf("kind %v: rebooted fingerprint differs from a from-scratch mine", kind)
		}
	}
}
