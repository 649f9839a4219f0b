package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stburst/internal/stream"
)

// testBatches returns n deterministic batches of varying shape,
// including a document with no terms (fully stopworded) to keep the
// codec honest about empty count maps.
func testBatches(n int) [][]stream.AppendDoc {
	out := make([][]stream.AppendDoc, n)
	for i := range out {
		docs := make([]stream.AppendDoc, 1+i%3)
		for j := range docs {
			counts := map[string]int{}
			for k := 0; k <= (i+j)%3; k++ {
				counts[fmt.Sprintf("term-%d-%d", i, k)] = k + 1
			}
			if (i+j)%5 == 4 {
				counts = map[string]int{} // everything stopworded
			}
			docs[j] = stream.AppendDoc{Stream: i % 4, Time: (i + j) % 7, Counts: counts}
		}
		out[i] = docs
	}
	return out
}

// fillLog appends batches to a fresh log in dir and returns the
// cumulative Stats().Bytes after each append — the frame boundaries
// the truncation sweeps anchor on — plus the appended batches.
func fillLog(t testing.TB, dir string, opts Options, n int) (bounds []int64, batches [][]stream.AppendDoc) {
	t.Helper()
	l, pending, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh log has %d pending batches", len(pending))
	}
	batches = testBatches(n)
	for i, docs := range batches {
		seq, err := l.Append(uint64(i+1), uint64(i*10), docs)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
		bounds = append(bounds, l.Stats().Bytes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return bounds, batches
}

// copyDir clones every regular file of src into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
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

func TestEmptyLogBoots(t *testing.T) {
	dir := t.TempDir()
	for pass := 0; pass < 2; pass++ {
		l, pending, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if len(pending) != 0 {
			t.Fatalf("pass %d: %d pending batches in an empty log", pass, len(pending))
		}
		st := l.Stats()
		if st.LastSeq != 0 || st.Batches != 0 || st.Segments != 1 || st.Bytes != headerLen {
			t.Fatalf("pass %d: unexpected stats %+v", pass, st)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestZeroLengthSegmentBoots covers a crash between segment creation
// and the header write: the file exists with zero bytes.
func TestZeroLengthSegmentBoots(t *testing.T) {
	dir := t.TempDir()
	name := fmt.Sprintf("%s%016x%s", segPrefix, uint64(1), segSuffix)
	if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, pending, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(pending) != 0 {
		t.Fatalf("%d pending batches", len(pending))
	}
	if _, err := l.Append(1, 0, testBatches(1)[0]); err != nil {
		t.Fatalf("append after zero-length boot: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, batches := fillLog(t, dir, Options{}, 6)
	l, pending, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(pending) != len(batches) {
		t.Fatalf("recovered %d batches, want %d", len(pending), len(batches))
	}
	for i, b := range pending {
		if b.Seq != uint64(i+1) || b.PreGen != uint64(i+1) || b.BaseDocs != uint64(i*10) {
			t.Errorf("batch %d header = (seq %d, preGen %d, baseDocs %d)", i, b.Seq, b.PreGen, b.BaseDocs)
		}
		if !reflect.DeepEqual(b.Docs, batches[i]) {
			t.Errorf("batch %d docs round-tripped to %+v, want %+v", i, b.Docs, batches[i])
		}
	}
	st := l.Stats()
	if st.LastSeq != uint64(len(batches)) || st.Batches != len(batches) {
		t.Errorf("stats after reopen: %+v", st)
	}
	// The log continues the sequence after recovery.
	seq, err := l.Append(9, 99, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(batches)+1) {
		t.Errorf("post-recovery append got seq %d, want %d", seq, len(batches)+1)
	}
}

// TestTornTailSweep truncates the log at every byte offset and asserts
// recovery returns exactly the frames that lie wholly before the cut —
// never an error, never a partial frame: the torn-write crash model.
func TestTornTailSweep(t *testing.T) {
	dir := t.TempDir()
	bounds, batches := fillLog(t, dir, Options{}, 4)
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	size := bounds[len(bounds)-1]
	for cut := int64(0); cut < size; cut++ {
		work := copyDir(t, dir)
		path := filepath.Join(work, segs[0])
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, b := range bounds {
			if b <= cut {
				want++
			}
		}
		l, pending, err := Open(work, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(pending) != want {
			l.Close()
			t.Fatalf("cut %d: recovered %d batches, want %d", cut, len(pending), want)
		}
		for i, b := range pending {
			if !reflect.DeepEqual(b.Docs, batches[i]) {
				l.Close()
				t.Fatalf("cut %d: batch %d corrupted in recovery", cut, i)
			}
		}
		// The truncated tail must be gone from disk so the log can keep
		// appending cleanly right where the intact prefix ends.
		if _, err := l.Append(1, 1, batches[0]); err != nil {
			l.Close()
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		l.Close()
		l2, pending2, err := Open(work, Options{})
		if err != nil || len(pending2) != want+1 {
			t.Fatalf("cut %d: second recovery got %d batches, err %v; want %d", cut, len(pending2), err, want+1)
		}
		l2.Close()
	}
}

// TestMidLogFlipSweep flips every byte of a mid-log frame (and of the
// segment header) and asserts recovery reports a hard error rather
// than silently skipping acknowledged data.
func TestMidLogFlipSweep(t *testing.T) {
	dir := t.TempDir()
	bounds, _ := fillLog(t, dir, Options{}, 3)
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0])
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Segment header plus all of frame 2 (frame 3 follows it, so any
	// damage here is mid-log).
	for off := int64(0); off < bounds[1]; off++ {
		if off >= headerLen && off < bounds[0] {
			continue // frame 1: equally mid-log, sampled by symmetry via frame 2
		}
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0xFF
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); err == nil {
			t.Fatalf("flipping byte %d recovered without error", off)
		}
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFinalFrameFlip: damage to the final frame's payload is a torn
// tail (the frame drops, earlier frames survive), while damage to its
// header is a hard error — truncation can never corrupt bytes it
// leaves behind, so a bad header checksum is disk corruption.
func TestFinalFrameFlip(t *testing.T) {
	dir := t.TempDir()
	bounds, batches := fillLog(t, dir, Options{}, 3)
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0])
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frameStart := bounds[1]
	for off := frameStart; off < bounds[2]; off++ {
		work := copyDir(t, dir)
		wpath := filepath.Join(work, segs[0])
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0xFF
		if err := os.WriteFile(wpath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l, pending, err := Open(work, Options{})
		if off < frameStart+frameLen {
			if err == nil {
				l.Close()
				t.Fatalf("flipping final-frame header byte %d recovered without error", off)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flipping final-frame payload byte %d: %v", off, err)
		}
		if len(pending) != 2 {
			l.Close()
			t.Fatalf("flipping payload byte %d recovered %d batches, want 2", off, len(pending))
		}
		if !reflect.DeepEqual(pending[1].Docs, batches[1]) {
			l.Close()
			t.Fatalf("payload flip at %d damaged an earlier frame", off)
		}
		l.Close()
	}
}

// FuzzWALOpen writes arbitrary bytes as the log's only segment, once
// after a valid segment header and once without one. Whatever the bytes,
// Open must not panic; when it accepts them, the batches it returns
// carry consecutive sequence numbers, and reopening the directory (Open
// may have truncated a torn tail) returns exactly the same batches.
// The seeds are the torn-tail and byte-flip fixtures: every truncation
// and every one-byte flip of a valid segment's frames.
func FuzzWALOpen(f *testing.F) {
	dir := f.TempDir()
	fillLog(f, dir, Options{}, 3)
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		f.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		f.Fatal(err)
	}
	body := seg[headerLen:]
	for cut := range body {
		f.Add(body[:cut])
	}
	for i := range body {
		flipped := append([]byte(nil), body...)
		flipped[i] ^= 0xFF
		f.Add(flipped)
	}
	f.Add(body)
	f.Add(seg)

	var hdr [headerLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], segVersion)
	name := fmt.Sprintf("%s%016x%s", segPrefix, uint64(1), segSuffix)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, contents := range [][]byte{append(hdr[:], data...), data} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, name), contents, 0o644); err != nil {
				t.Fatal(err)
			}
			l, pending, err := Open(dir, Options{})
			if err != nil {
				continue
			}
			l.Close()
			for i := 1; i < len(pending); i++ {
				if pending[i].Seq != pending[i-1].Seq+1 {
					t.Fatalf("batch %d has seq %d after seq %d", i, pending[i].Seq, pending[i-1].Seq)
				}
			}
			l, again, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopening an accepted log: %v", err)
			}
			l.Close()
			if !reflect.DeepEqual(again, pending) {
				t.Fatalf("reopen returned %d batches, first open %d", len(again), len(pending))
			}
		}
	})
}

// writeRawFrames builds a segment by hand with the given sequence
// numbers — the harness for gap/duplicate coverage.
func writeRawFrames(t *testing.T, dir string, seqs ...uint64) {
	t.Helper()
	name := fmt.Sprintf("%s%016x%s", segPrefix, seqs[0], segSuffix)
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := writeSegmentHeader(f); err != nil {
		t.Fatal(err)
	}
	var l Log
	for _, seq := range seqs {
		l.buf.Reset()
		encodePayload(&l.buf, seq, seq, 0, testBatches(1)[0])
		payload := l.buf.Bytes()
		hdr := make([]byte, frameLen)
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
		binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(hdr[0:8], castagnoli))
		if _, err := f.Write(append(hdr, payload...)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSequenceGapAndDuplicate(t *testing.T) {
	cases := []struct {
		name string
		seqs []uint64
		ok   bool
	}{
		{"consecutive", []uint64{1, 2, 3}, true},
		{"pruned prefix", []uint64{5, 6, 7}, true},
		{"gap", []uint64{1, 2, 4}, false},
		{"duplicate", []uint64{1, 2, 2}, false},
		{"regression", []uint64{2, 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeRawFrames(t, dir, tc.seqs...)
			l, pending, err := Open(dir, Options{})
			if tc.ok {
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				if len(pending) != len(tc.seqs) {
					t.Fatalf("recovered %d batches, want %d", len(pending), len(tc.seqs))
				}
				if st := l.Stats(); st.LastSeq != tc.seqs[len(tc.seqs)-1] {
					t.Fatalf("LastSeq %d, want %d", st.LastSeq, tc.seqs[len(tc.seqs)-1])
				}
			} else if err == nil {
				l.Close()
				t.Fatal("sequence anomaly recovered without error")
			}
		})
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	dir := t.TempDir()
	name := fmt.Sprintf("%s%016x%s", segPrefix, uint64(1), segSuffix)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte("NOTAWAL\x00\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Error("bad magic recovered without error")
	}
	hdr := make([]byte, headerLen)
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], 2)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Error("future version recovered without error")
	}
}

func TestRotationAndMultiSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every batch lands in its own segment.
	bounds, batches := fillLog(t, dir, Options{segmentBytes: 1}, 5)
	_ = bounds
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 {
		t.Fatalf("expected 5 segments, found %v", segs)
	}
	l, pending, err := Open(dir, Options{segmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(pending) != 5 {
		t.Fatalf("recovered %d batches across segments, want 5", len(pending))
	}
	for i, b := range pending {
		if b.Seq != uint64(i+1) || !reflect.DeepEqual(b.Docs, batches[i]) {
			t.Fatalf("batch %d wrong after multi-segment recovery", i)
		}
	}
	if st := l.Stats(); st.Segments != 5 {
		t.Errorf("stats count %d segments, want 5", st.Segments)
	}
}

// TestSealedSegmentCorruptionIsHard: any damage in a non-final segment
// is a hard error even at its very end — the torn-tail allowance
// applies only to the last segment, the only one a crash can tear.
func TestSealedSegmentCorruptionIsHard(t *testing.T) {
	dir := t.TempDir()
	fillLog(t, dir, Options{segmentBytes: 1}, 3)
	segs, _ := listSegments(dir)
	if len(segs) != 3 {
		t.Fatalf("expected 3 segments, found %v", segs)
	}
	first := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	// Truncating a sealed segment (what would be a torn tail elsewhere).
	if err := os.Truncate(first, int64(len(data)-1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Error("truncated sealed segment recovered without error")
	}
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Flipping a payload byte at the sealed segment's exact end.
	mut := append([]byte(nil), data...)
	mut[len(mut)-1] ^= 0xFF
	if err := os.WriteFile(first, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Error("corrupt sealed segment recovered without error")
	}
}

func TestExplicitRotateAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	batches := testBatches(4)
	// Rotate with no frames is a no-op: no empty segments pile up.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(dir); len(segs) != 1 {
		t.Fatalf("empty rotate created a segment: %v", segs)
	}
	for i, docs := range batches[:2] {
		if _, err := l.Append(uint64(i), uint64(i), docs); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(2, 2, batches[2]); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Segments != 2 || st.Batches != 3 {
		t.Fatalf("after rotate: %+v", st)
	}
	// Prune below the sealed segment's last frame keeps it.
	if err := l.Prune(1); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 2 {
		t.Fatalf("prune(1) removed a segment still holding frame 2: %+v", st)
	}
	// Prune at its last frame removes it; the active segment stays.
	if err := l.Prune(2); err != nil {
		t.Fatal(err)
	}
	st = l.Stats()
	if st.Segments != 1 || st.Batches != 1 || st.LastSeq != 3 {
		t.Fatalf("after prune(2): %+v", st)
	}
	if segs, _ := listSegments(dir); len(segs) != 1 {
		t.Fatalf("pruned segment still on disk: %v", segs)
	}
	// A log whose older segments were pruned reopens cleanly (first
	// frame carries a non-initial sequence).
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, pending, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(pending) != 1 || pending[0].Seq != 3 {
		t.Fatalf("post-prune recovery: %d batches, first seq %d", len(pending), pending[0].Seq)
	}
}

// TestPrunedLogResumesSequence: a log whose every frame was pruned
// reopens at its last sequence, not at 0, so the next frame cannot
// reuse a pruned number and the next rotation cannot collide with the
// active segment's file.
func TestPrunedLogResumesSequence(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches := testBatches(3)
	if _, err := l.Append(0, 0, batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Prune(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 2; want++ {
		l, pending, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(pending) != 0 || l.Stats().LastSeq != want {
			t.Fatalf("reopened pruned log: %d pending, LastSeq %d, want 0 and %d", len(pending), l.Stats().LastSeq, want)
		}
		if seq, err := l.Append(0, 0, batches[want]); err != nil || seq != want+1 {
			t.Fatalf("append after reopen = (%d, %v), want seq %d", seq, err, want+1)
		}
		if err := l.Rotate(); err != nil {
			t.Fatalf("rotate after reopen: %v", err)
		}
		if err := l.Prune(want + 1); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRenumberedLogReopens: a log an older release renumbered from 1
// after a prune holds frame 1 inside a segment named for frame 2. It
// must still open, replay and rotate, and the rotated segment must sort
// after it.
func TestRenumberedLogReopens(t *testing.T) {
	dir := t.TempDir()
	fillLog(t, dir, Options{}, 1)
	seg := func(seq uint64) string {
		return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix))
	}
	if err := os.Rename(seg(1), seg(2)); err != nil {
		t.Fatal(err)
	}
	l, pending, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Seq != 1 || l.Stats().LastSeq != 1 {
		t.Fatalf("renumbered log: %d pending, LastSeq %d, want frame 1", len(pending), l.Stats().LastSeq)
	}
	if err := l.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if seq, err := l.Append(0, 0, testBatches(2)[1]); err != nil || seq != 2 {
		t.Fatalf("append after rotate = (%d, %v), want seq 2", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, pending, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after rotate: %v", err)
	}
	defer l.Close()
	if len(pending) != 2 || pending[1].Seq != 2 {
		t.Fatalf("reopen after rotate: %d pending, want frames 1 and 2", len(pending))
	}
	if segs, _ := listSegments(dir); len(segs) != 2 || filepath.Join(dir, segs[0]) != seg(2) {
		t.Fatalf("segments %v, want the renumbered one first", segs)
	}
}

func TestInjectorWriteFaults(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name    string
		err     error
		wantErr error
	}{
		{"error after N bytes", errBoom, errBoom},
		{"short write", nil, io.ErrShortWrite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := &Injector{}
			l, _, err := Open(dir, Options{Injector: inj})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			docs := testBatches(1)[0]
			if _, err := l.Append(1, 0, docs); err != nil {
				t.Fatal(err)
			}
			// Fail 5 bytes into the next frame: a torn write.
			inj.FailWritesAfter(5, tc.err)
			if _, err := l.Append(1, 1, docs); !errors.Is(err, tc.wantErr) {
				t.Fatalf("faulted append error = %v, want %v", err, tc.wantErr)
			}
			st := l.Stats()
			if st.LastSeq != 1 || st.Batches != 1 {
				t.Fatalf("failed append changed the log: %+v", st)
			}
			// The torn frame was rolled back: the log keeps appending and
			// recovery sees a clean, gap-free sequence.
			inj.Clear()
			if _, err := l.Append(1, 1, docs); err != nil {
				t.Fatalf("append after cleared fault: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, pending, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("recovery after rolled-back fault: %v", err)
			}
			if len(pending) != 2 || pending[1].Seq != 2 {
				t.Fatalf("recovered %d batches, want the 2 acknowledged ones", len(pending))
			}
		})
	}
}

func TestInjectorSyncFaults(t *testing.T) {
	errSync := errors.New("sync fault")
	// Both flavors must fail the append and roll the frame back: data
	// whose durability is unknown is never acknowledged.
	for _, arm := range []func(*Injector){
		func(in *Injector) { in.FailBeforeSync(errSync) },
		func(in *Injector) { in.FailAfterSync(errSync) },
	} {
		dir := t.TempDir()
		inj := &Injector{}
		l, _, err := Open(dir, Options{Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
		docs := testBatches(1)[0]
		arm(inj)
		if _, err := l.Append(1, 0, docs); !errors.Is(err, errSync) {
			t.Fatalf("append under sync fault = %v, want %v", err, errSync)
		}
		inj.Clear()
		seq, err := l.Append(1, 0, docs)
		if err != nil || seq != 1 {
			t.Fatalf("retry after sync fault: seq %d, %v", seq, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, pending, err := Open(dir, Options{})
		if err != nil || len(pending) != 1 {
			t.Fatalf("recovery after sync fault: %d batches, %v", len(pending), err)
		}
	}
}

// TestDroppedSyncCrash is the power-loss simulation: with fsync
// silently dropped, an acknowledged frame that a "crash" (manual
// truncation, as the page cache would lose it) removes is gone — and
// recovery handles the loss as a torn tail, exactly why SyncNever
// carries no durability guarantee.
func TestDroppedSyncCrash(t *testing.T) {
	dir := t.TempDir()
	inj := &Injector{}
	l, _, err := Open(dir, Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	docs := testBatches(1)[0]
	if _, err := l.Append(1, 0, docs); err != nil {
		t.Fatal(err)
	}
	durable := l.Stats().Bytes
	inj.DropSyncs(true)
	if _, err := l.Append(1, 1, docs); err != nil {
		t.Fatal(err) // acknowledged...
	}
	if inj.Syncs() != 1 {
		t.Fatalf("injector counted %d real syncs, want only the pre-drop one", inj.Syncs())
	}
	l.Close()
	segs, _ := listSegments(dir)
	if err := os.Truncate(filepath.Join(dir, segs[0]), durable); err != nil {
		t.Fatal(err)
	}
	_, pending, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 {
		t.Fatalf("...but lost: recovered %d batches, want 1", len(pending))
	}
}

func TestSyncPolicyCounts(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i, docs := range testBatches(3) {
		if _, err := l.Append(uint64(i), 0, docs); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Syncs != 0 {
		t.Errorf("SyncNever performed %d frame syncs", st.Syncs)
	}
	l.Close()

	dir2 := t.TempDir()
	l2, _, err := Open(dir2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for i, docs := range testBatches(3) {
		if _, err := l2.Append(uint64(i), 0, docs); err != nil {
			t.Fatal(err)
		}
	}
	if st := l2.Stats(); st.Syncs != 3 {
		t.Errorf("SyncAlways synced %d times for 3 appends", st.Syncs)
	}
}
