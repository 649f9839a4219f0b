package stburst

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stburst/internal/search"
	"stburst/internal/stream"
	"stburst/internal/wal"
)

// This file tests crash recovery end to end at the Store level: ingest
// through an attached write-ahead log, "crash" (abandon the process
// state), reboot through OpenWAL → ReplayWAL → MineStore/LoadStore →
// AttachWAL, and assert the recovered store is bit-identical to the
// pre-crash one — collection checksum, per-kind index fingerprints and
// generation. The byte-level torn-tail and corruption sweeps live in
// internal/wal; here the oracle is a live store that never crashed.

func mustMineStore(t testing.TB, c *Collection, opts *MineOptions, kinds ...Kind) *Store {
	t.Helper()
	s, err := c.MineStore(context.Background(), opts, kinds...)
	if err != nil {
		t.Fatalf("MineStore: %v", err)
	}
	return s
}

func mustOpenWAL(t *testing.T, dir string, opts ...WALOption) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, opts...)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", dir, err)
	}
	return w
}

func mustAttachWAL(t *testing.T, s *Store, w *WAL) AttachResult {
	t.Helper()
	res, err := s.AttachWAL(context.Background(), w)
	if err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	return res
}

func mustIngest(t *testing.T, s *Store, docs []IncomingDocument) IngestResult {
	t.Helper()
	res, err := s.Ingest(context.Background(), docs)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	return res
}

// storeState is the identity of a store for recovery assertions: what
// must survive a crash bit-for-bit.
type storeState struct {
	sum  string
	gen  uint64
	fps  map[string]string // kind name -> fingerprint
	docs int
}

func captureState(s *Store) storeState {
	st := storeState{
		sum:  s.Collection().Checksum(),
		gen:  s.Generation(),
		fps:  map[string]string{},
		docs: s.Collection().NumDocs(),
	}
	for _, ix := range s.Resident() {
		st.fps[ix.Kind()] = ix.Fingerprint()
	}
	return st
}

func assertState(t *testing.T, label string, s *Store, want storeState) {
	t.Helper()
	got := captureState(s)
	if got.docs != want.docs {
		t.Errorf("%s: NumDocs = %d, want %d", label, got.docs, want.docs)
	}
	if got.sum != want.sum {
		t.Errorf("%s: collection checksum diverged from the oracle", label)
	}
	if got.gen != want.gen {
		t.Errorf("%s: generation = %d, want %d", label, got.gen, want.gen)
	}
	if len(got.fps) != len(want.fps) {
		t.Errorf("%s: %d resident kinds, want %d", label, len(got.fps), len(want.fps))
	}
	for kind, fp := range want.fps {
		if got.fps[kind] != fp {
			t.Errorf("%s: %s fingerprint diverged from the oracle", label, kind)
		}
	}
}

// secondBatch has no term overlap with liveBatch, so its dirty-term
// count is exactly its own distinct vocabulary.
func secondBatch() []IncomingDocument {
	return []IncomingDocument{
		{Stream: 1, Time: 15, Text: "tsunami warning coastal sirens"},
		{Stream: 2, Time: 15, Text: "tsunami evacuation routes crowded"},
	}
}

// TestWALRecoveryMatchesLiveStore is the basic crash round trip: two
// logged ingests, kill, reboot through replay + full re-mine + attach.
// The recovered store must equal the live one on every axis, and must
// keep ingesting on the recovered log without a sequence anomaly.
func TestWALRecoveryMatchesLiveStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	c1 := twoBurstCollection(t)
	s1 := mustMineStore(t, c1, nil)
	w1 := mustOpenWAL(t, dir)
	att1 := mustAttachWAL(t, s1, w1)
	if att1.Batches != 0 || att1.DirtyTerms != 0 {
		t.Fatalf("fresh-log attach = %+v, want nothing replayed", att1)
	}
	mustIngest(t, s1, liveBatch())
	mustIngest(t, s1, secondBatch())
	assertEnginesFresh(t, s1)
	want := captureState(s1)
	// Crash: the WAL is deliberately not closed.

	c2 := twoBurstCollection(t)
	w2 := mustOpenWAL(t, dir)
	rep, err := c2.ReplayWAL(ctx, w2)
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if rep.Batches != 2 || rep.Docs != 5 {
		t.Fatalf("ReplayWAL = %+v, want 2 batches, 5 docs", rep)
	}
	s2 := mustMineStore(t, c2, nil)
	att2 := mustAttachWAL(t, s2, w2)
	if att2.Generation != want.gen {
		t.Errorf("AttachWAL restored generation %d, want %d", att2.Generation, want.gen)
	}
	assertState(t, "recovered store", s2, want)

	// The recovered log keeps accepting ingests, and a second recovery
	// sees a gap-free sequence.
	mustIngest(t, s2, []IncomingDocument{{Stream: 0, Time: 15, Text: "aftershocks rattle harbor"}})
	if w2.LastSeq() != 3 {
		t.Fatalf("LastSeq after post-recovery ingest = %d, want 3", w2.LastSeq())
	}
	assertEnginesFresh(t, s2)
	c3 := twoBurstCollection(t)
	w3 := mustOpenWAL(t, dir)
	if rep3, err := c3.ReplayWAL(ctx, w3); err != nil || rep3.Batches != 3 {
		t.Fatalf("second recovery: ReplayWAL = %+v, %v, want 3 batches", rep3, err)
	}
	_ = w3.Close()
	_ = w2.Close()
}

// TestWALRecoveryAfterSaveSkipsMinedBatches covers the interaction
// between Store.Save and replay: the save rotates the log (bounding the
// active segment) and persists the generation, so a reboot that loads
// the bundle must re-mine ONLY the batches logged at or after the
// bundle's generation — the earlier ones are already mined into it.
func TestWALRecoveryAfterSaveSkipsMinedBatches(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	bundle := filepath.Join(t.TempDir(), "store.bundle")

	c1 := twoBurstCollection(t)
	s1 := mustMineStore(t, c1, nil)
	w1 := mustOpenWAL(t, dir)
	mustAttachWAL(t, s1, w1)
	mustIngest(t, s1, liveBatch())
	if err := s1.SaveFile(bundle); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	st, ok := s1.WALStats()
	if !ok {
		t.Fatal("WALStats: no wal attached")
	}
	if st.Segments != 2 || st.Batches != 1 {
		t.Fatalf("after save: WALStats = %+v, want the save to have rotated to 2 segments around 1 batch", st)
	}
	res2 := mustIngest(t, s1, secondBatch())
	want := captureState(s1)
	// Crash.

	c2 := twoBurstCollection(t)
	w2 := mustOpenWAL(t, dir)
	rep, err := c2.ReplayWAL(ctx, w2)
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if rep.Batches != 2 || rep.Docs != 5 {
		t.Fatalf("ReplayWAL = %+v, want both batches re-appended", rep)
	}
	f, err := os.Open(bundle)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := LoadStore(f, c2)
	f.Close()
	if err != nil {
		t.Fatalf("LoadStore after replay: %v", err)
	}
	minedBefore := search.TermsMined()
	att, err := s2.AttachWAL(ctx, w2)
	if err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	// Batch 1 predates the bundle's generation: only batch 2's terms
	// may be re-mined, once per resident kind.
	if att.DirtyTerms != res2.DirtyTerms {
		t.Errorf("attach re-mined %d terms, want only the post-save batch's %d", att.DirtyTerms, res2.DirtyTerms)
	}
	if delta, wantMined := search.TermsMined()-minedBefore, int64(res2.DirtyTerms)*3; delta != wantMined {
		t.Errorf("attach mined %d (term, kind) pairs, want %d", delta, wantMined)
	}
	assertState(t, "bundle-loaded recovery", s2, want)
	_ = w2.Close()
}

// TestWALHealsIncompleteIngest: an ingest whose context ends past the
// commit point installs its batch and keeps its WAL entry, so the live
// store already equals an oracle whose ingest ran undisturbed, and a
// crash right after it replays to that same store.
func TestWALHealsIncompleteIngest(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	c1 := twoBurstCollection(t)
	s1 := mustMineStore(t, c1, nil)
	w1 := mustOpenWAL(t, dir)
	mustAttachWAL(t, s1, w1)
	tctx := &trippingContext{Context: context.Background(), after: 1}
	if _, err := s1.Ingest(tctx, liveBatch()); err != nil {
		t.Fatalf("tripped Ingest = %v, want the batch installed", err)
	}
	if st, _ := s1.WALStats(); st.Batches != 1 || st.LastSeq != 1 {
		t.Fatalf("after tripped Ingest: WALStats = %+v, want the batch logged", st)
	}

	oc := twoBurstCollection(t)
	os1 := mustMineStore(t, oc, nil)
	if _, err := os1.Ingest(ctx, liveBatch()); err != nil {
		t.Fatalf("oracle Ingest: %v", err)
	}
	want := captureState(os1)
	assertState(t, "live store", s1, want)
	// Crash now.

	c2 := twoBurstCollection(t)
	w2 := mustOpenWAL(t, dir)
	rep, err := c2.ReplayWAL(ctx, w2)
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if rep.Batches != 1 || rep.Docs != 3 {
		t.Fatalf("ReplayWAL = %+v, want the tripped ingest's batch", rep)
	}
	s2 := mustMineStore(t, c2, nil)
	mustAttachWAL(t, s2, w2)
	assertState(t, "rebooted store", s2, captureState(s1))
	_ = w2.Close()
}

// TestWALCrashRecoverySweep is the randomized crash-recovery property
// test: a seeded schedule of ingest batches over all three pattern
// kinds, then a kill at every
// frame boundary and at sampled mid-frame offsets of the log. For each
// cut the rebooted store must equal the synchronous oracle that stopped
// after exactly the batches the truncated log still holds.
func TestWALCrashRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery sweep is slow; skipped with -short")
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"quake", "flood", "storm", "sirens", "levee", "ashfall"}
	schedule := make([][]IncomingDocument, 4)
	for i := range schedule {
		batch := make([]IncomingDocument, 1+rng.Intn(3))
		for j := range batch {
			words := make([]string, 3+rng.Intn(3))
			for k := range words {
				words[k] = vocab[rng.Intn(len(vocab))]
			}
			batch[j] = IncomingDocument{
				Stream: rng.Intn(4),
				Time:   13 + rng.Intn(3),
				Text:   strings.Join(words, " "),
			}
		}
		schedule[i] = batch
	}

	// Live run: ingest the schedule, recording the log's size after
	// every batch (the frame boundaries) and the store state each
	// boundary corresponds to — the oracle for every cut point.
	dir := t.TempDir()
	c1 := twoBurstCollection(t)
	s1 := mustMineStore(t, c1, nil)
	w1 := mustOpenWAL(t, dir)
	mustAttachWAL(t, s1, w1)
	boundaries := []int64{mustWALBytes(t, s1)} // segment header only
	oracle := []storeState{captureState(s1)}
	for _, batch := range schedule {
		mustIngest(t, s1, batch)
		boundaries = append(boundaries, mustWALBytes(t, s1))
		oracle = append(oracle, captureState(s1))
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.stwal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected exactly one segment file, got %v (%v)", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != boundaries[len(boundaries)-1] {
		t.Fatalf("segment is %d bytes, WALStats says %d", len(full), boundaries[len(boundaries)-1])
	}

	// Cut points: every frame boundary, its neighbors, and sampled
	// mid-frame offsets. (The exhaustive every-byte sweep runs at the
	// frame level in internal/wal; this one pays a full store boot per
	// cut.)
	cuts := map[int64]bool{0: true, 5: true}
	for _, b := range boundaries {
		cuts[b] = true
		if b > 0 {
			cuts[b-1] = true
		}
		cuts[b+1] = true
	}
	for off := int64(0); off < int64(len(full)); off += 5 {
		cuts[off] = true
	}
	for cut := range cuts {
		if cut > int64(len(full)) {
			delete(cuts, cut)
		}
	}

	// expected batches for a cut: frames wholly before it survive.
	expect := func(cut int64) int {
		n := 0
		for j := 1; j < len(boundaries); j++ {
			if boundaries[j] <= cut {
				n = j
			}
		}
		return n
	}

	name := filepath.Base(segs[0])
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		if !cuts[cut] {
			continue
		}
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, name), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j := expect(cut)
		w2, err := OpenWAL(cutDir)
		if err != nil {
			t.Fatalf("cut %d: OpenWAL: %v", cut, err)
		}
		c2 := twoBurstCollection(t)
		rep, err := c2.ReplayWAL(ctx, w2)
		if err != nil {
			t.Fatalf("cut %d: ReplayWAL: %v", cut, err)
		}
		if rep.Batches != j {
			t.Fatalf("cut %d: replayed %d batches, want %d", cut, rep.Batches, j)
		}
		s2 := mustMineStore(t, c2, nil)
		if _, err := s2.AttachWAL(ctx, w2); err != nil {
			t.Fatalf("cut %d: AttachWAL: %v", cut, err)
		}
		assertState(t, fmt.Sprintf("cut %d (%d batches)", cut, j), s2, oracle[j])
		if t.Failed() {
			t.Fatalf("cut %d diverged from the oracle", cut)
		}
		_ = w2.Close()
	}
}

func mustWALBytes(t *testing.T, s *Store) int64 {
	t.Helper()
	st, ok := s.WALStats()
	if !ok {
		t.Fatal("WALStats: no wal attached")
	}
	return st.Bytes
}

// TestWALIngestFaultInjection drives Store.Ingest through failing WAL
// appends: with the attached log closed under the store, Append fails
// as any write error does, and Ingest must return the log's error with
// store, collection and log untouched. A fresh log opened on the same
// directory then takes the verbatim retry, and a reboot afterwards sees
// exactly the acknowledged batches. (The torn-frame and failed-fsync
// cases run against the log itself in internal/wal.)
func TestWALIngestFaultInjection(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	c1 := twoBurstCollection(t)
	s1 := mustMineStore(t, c1, nil)
	w := mustOpenWAL(t, dir)
	mustAttachWAL(t, s1, w)

	for i, batch := range [][]IncomingDocument{liveBatch(), secondBatch()} {
		clean := captureState(s1)
		cleanWAL, _ := s1.WALStats()
		l := s1.wal.Load()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, logErr := l.Append(s1.Generation(), uint64(c1.NumDocs()), nil)
		if logErr == nil {
			t.Fatal("a closed log accepted an append")
		}
		_, err := s1.Ingest(ctx, batch)
		if err == nil || err.Error() != logErr.Error() {
			t.Fatalf("batch %d: Ingest on a failing log = %v, want the log's %v", i, err, logErr)
		}
		assertState(t, fmt.Sprintf("batch %d: store after failed WAL append", i), s1, clean)
		if st, _ := s1.WALStats(); st != cleanWAL {
			t.Fatalf("batch %d: failed append changed the log: WALStats = %+v, want %+v", i, st, cleanWAL)
		}

		// Verbatim retry on a working log of the same directory.
		fresh, pending, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("batch %d: wal.Open: %v", i, err)
		}
		if len(pending) != i {
			t.Fatalf("batch %d: reopened log holds %d batches, want the %d acknowledged", i, len(pending), i)
		}
		s1.wal.Store(fresh)
		w.l = fresh
		mustIngest(t, s1, batch)
	}
	want := captureState(s1)
	// Crash.

	c2 := twoBurstCollection(t)
	w2 := mustOpenWAL(t, dir)
	rep, err := c2.ReplayWAL(ctx, w2)
	if err != nil {
		t.Fatalf("ReplayWAL after failed appends: %v", err)
	}
	if rep.Batches != 2 {
		t.Fatalf("replayed %d batches, want the 2 acknowledged ones", rep.Batches)
	}
	s2 := mustMineStore(t, c2, nil)
	mustAttachWAL(t, s2, w2)
	assertState(t, "recovery after failed appends", s2, want)
	_ = w2.Close()
	_ = w.Close()
}

// TestWALReplayRejectsForeignCorpus: a frame's recorded base document
// count must match the collection, or the log belongs to a different
// corpus and replay must refuse rather than misnumber every document.
func TestWALReplayRejectsForeignCorpus(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	c1 := twoBurstCollection(t)
	s1 := mustMineStore(t, c1, nil)
	w1 := mustOpenWAL(t, dir)
	mustAttachWAL(t, s1, w1)
	mustIngest(t, s1, liveBatch())
	// Crash; reboot against a corpus with extra documents.
	c2 := twoBurstCollection(t)
	applyBatch(t, c2, secondBatch())
	w2 := mustOpenWAL(t, dir)
	if _, err := c2.ReplayWAL(ctx, w2); err == nil || !strings.Contains(err.Error(), "different corpus") {
		t.Fatalf("ReplayWAL into a foreign corpus = %v, want a corpus-mismatch error", err)
	}
	_ = w2.Close()
}

// TestWALReplayRejectsOutOfRangeCount: a frame that decodes cleanly —
// valid checksums, valid structure — but carries a term count no posting
// can hold must fail replay, not wrap into a negative frequency. Live
// ingestion validates before logging, so such a frame can only come from
// outside; it is written here through the log's own (unvalidating)
// Append.
func TestWALReplayRejectsOutOfRangeCount(t *testing.T) {
	dir := t.TempDir()
	c := twoBurstCollection(t)
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []stream.AppendDoc{{Stream: 0, Time: 1, Counts: map[string]int{"flood": 3_000_000_000}}}
	if _, err := l.Append(0, uint64(c.NumDocs()), bad); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	before, docs := c.Checksum(), c.NumDocs()
	w := mustOpenWAL(t, dir)
	defer w.Close()
	if _, err := c.ReplayWAL(context.Background(), w); err == nil || !strings.Contains(err.Error(), "count") {
		t.Fatalf("ReplayWAL of an out-of-range count = %v, want a count error", err)
	}
	if c.NumDocs() != docs || c.Checksum() != before {
		t.Fatal("a rejected frame changed the collection")
	}
}

// TestWALLifecycleGuards locks down the misuse errors of the replay /
// attach protocol: attach before replay, double replay, replay into one
// collection and attach to another, double attach, and a second log on
// an already-armed store.
func TestWALLifecycleGuards(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	{
		c := twoBurstCollection(t)
		s := mustMineStore(t, c, nil)
		w := mustOpenWAL(t, dir)
		mustAttachWAL(t, s, w)
		mustIngest(t, s, liveBatch())
	}

	c := twoBurstCollection(t)
	s := mustMineStore(t, c, nil)
	w := mustOpenWAL(t, dir)
	if _, err := s.AttachWAL(ctx, w); err == nil || !strings.Contains(err.Error(), "unreplayed") {
		t.Fatalf("attach before replay = %v, want an unreplayed-batches error", err)
	}
	if _, err := c.ReplayWAL(ctx, w); err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if _, err := c.ReplayWAL(ctx, w); err == nil {
		t.Fatal("second ReplayWAL succeeded, want an already-replayed error")
	}
	other := twoBurstCollection(t)
	otherStore := mustMineStore(t, other, nil)
	if _, err := otherStore.AttachWAL(ctx, w); err == nil || !strings.Contains(err.Error(), "different collection") {
		t.Fatalf("attach to a foreign store = %v, want a collection-mismatch error", err)
	}
	mustAttachWAL(t, s, w)
	if _, err := s.AttachWAL(ctx, w); err == nil {
		t.Fatal("second AttachWAL succeeded, want an already-attached error")
	}
	if _, err := c.ReplayWAL(ctx, w); err == nil {
		t.Fatal("ReplayWAL after attach succeeded, want an error")
	}
	w2 := mustOpenWAL(t, t.TempDir())
	if _, err := s.AttachWAL(ctx, w2); err == nil || !strings.Contains(err.Error(), "already has a wal") {
		t.Fatalf("second log on an armed store = %v, want an already-has-a-wal error", err)
	}
	_ = w2.Close()
	_ = w.Close()

	// Ingest on a closed log fails before the append: retryable, store
	// untouched.
	before := captureState(s)
	if _, err := s.Ingest(ctx, secondBatch()); err == nil {
		t.Fatal("Ingest on a closed wal succeeded, want a pre-append error")
	}
	assertState(t, "store after ingest on closed wal", s, before)
}
