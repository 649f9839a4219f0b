package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"testing/iotest"
)

// orderedSets returns one set of each kind in the canonical bundle
// member order.
func orderedSets() []*PatternSet {
	return []*PatternSet{regionalSet(), combSet(), temporalSet()}
}

// bundleBytes serializes b and returns the raw stream.
func bundleBytes(t testing.TB, b *Bundle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Write(&buf, snapshotTerm); err != nil {
		t.Fatalf("Bundle.Write: %v", err)
	}
	return buf.Bytes()
}

// goldenBundle is the content of testdata/v4.bundle: every kind, a shard
// identity and two subscriptions.
func goldenBundle() *Bundle {
	return &Bundle{
		Sets:       orderedSets(),
		Generation: 7,
		Shard:      ShardInfo{Shard: 1, Shards: 3, Scheme: ShardScheme, CorpusFingerprint: testCorpusFingerprint},
		Subs: [][]byte{
			[]byte(`{"id":"sub-1","terms":["term002"]}`),
			[]byte(`{"id":"sub-2","terms":["term007","term009"],"kind":"temporal"}`),
		},
	}
}

// manifestOffset walks a bundle's header — fixed fields, scheme tag,
// corpus fingerprint, subscription blobs — to where the manifest starts.
func manifestOffset(full []byte) int {
	le := binary.LittleEndian
	off := 36 + int(le.Uint32(full[32:36])) + 32 // through the shard block
	nsubs := int(le.Uint32(full[off:]))
	off += 4
	for i := 0; i < nsubs; i++ {
		off += 4 + int(le.Uint32(full[off:]))
	}
	return off
}

// reseal recomputes the trailing stream checksum after a test tampered
// with the payload, so only the check under test can object.
func reseal(full []byte) {
	sum := sha256.Sum256(full[:len(full)-sha256.Size])
	copy(full[len(full)-sha256.Size:], sum[:])
}

// writeBundleBytes serializes the sets as a whole-vocabulary bundle at
// generation 7.
func writeBundleBytes(t testing.TB, sets []*PatternSet) []byte {
	t.Helper()
	return bundleBytes(t, &Bundle{Sets: sets, Generation: 7, Shard: ShardInfo{Shards: 1}})
}

// TestBundleRoundTrip writes bundles of every member count and checks
// each member decodes to its exact fingerprint, kind and term strings.
func TestBundleRoundTrip(t *testing.T) {
	all := orderedSets()
	for _, sets := range [][]*PatternSet{
		all,
		{all[0]},
		{all[0], all[2]},
		{all[1], all[2]},
	} {
		full := writeBundleBytes(t, sets)
		snaps, gen, err := ReadBundle(bytes.NewReader(full))
		if err != nil {
			t.Fatalf("ReadBundle(%d members): %v", len(sets), err)
		}
		if gen != 7 {
			t.Errorf("decoded generation %d, want the written 7", gen)
		}
		if len(snaps) != len(sets) {
			t.Fatalf("decoded %d members, want %d", len(snaps), len(sets))
		}
		for i, snap := range snaps {
			if got, want := snap.Set.Kind(), sets[i].Kind(); got != want {
				t.Errorf("member %d kind %v, want %v", i, got, want)
			}
			if got, want := snap.Set.Fingerprint(), sets[i].Fingerprint(); got != want {
				t.Errorf("member %d fingerprint %s, want %s", i, got, want)
			}
			for j, id := range sets[i].Terms() {
				if want := snapshotTerm(id); snap.Terms[j] != want {
					t.Errorf("member %d term %d decoded as %q, want %q", i, id, snap.Terms[j], want)
				}
			}
		}
	}
}

// TestBundleWriteValidation: empty input, too many members, duplicate or
// out-of-order kinds are writer-side errors.
func TestBundleWriteValidation(t *testing.T) {
	all := orderedSets()
	var buf bytes.Buffer
	if err := WriteBundle(&buf, nil, snapshotTerm, 0); err == nil {
		t.Error("WriteBundle accepted zero members")
	}
	if err := WriteBundle(&buf, []*PatternSet{all[0], all[1], all[2], all[0]}, snapshotTerm, 0); err == nil {
		t.Error("WriteBundle accepted four members")
	}
	if err := WriteBundle(&buf, []*PatternSet{all[0], all[0]}, snapshotTerm, 0); err == nil {
		t.Error("WriteBundle accepted duplicate kinds")
	}
	if err := WriteBundle(&buf, []*PatternSet{all[2], all[0]}, snapshotTerm, 0); err == nil {
		t.Error("WriteBundle accepted out-of-order kinds")
	}
}

// TestBundleRejectsTruncation checks that every proper prefix of a valid
// bundle fails to load.
func TestBundleRejectsTruncation(t *testing.T) {
	full := writeBundleBytes(t, orderedSets())
	for n := 0; n < len(full); n++ {
		if _, _, err := ReadBundle(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes loaded without error", n, len(full))
		}
	}
}

// TestBundleRejectsCorruption flips one byte at a time through a valid
// bundle — header, manifest, member payloads and footer — and checks no
// altered stream loads.
func TestBundleRejectsCorruption(t *testing.T) {
	full := writeBundleBytes(t, orderedSets())
	for i := range full {
		corrupt := bytes.Clone(full)
		corrupt[i] ^= 0xff
		if _, _, err := ReadBundle(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("flipping byte %d of %d loaded without error", i, len(full))
		}
	}
}

// TestBundleRejectsManifestFingerprintMismatch: a bundle whose manifest
// fingerprint disagrees with its (self-consistent) member is rejected by
// the manifest check itself — the attack the overall checksum cannot
// catch, because here the checksum is recomputed to match the tampered
// manifest.
func TestBundleRejectsManifestFingerprintMismatch(t *testing.T) {
	full := writeBundleBytes(t, []*PatternSet{temporalSet()})
	tampered := bytes.Clone(full)
	// The entry's fingerprint sits 12 bytes in (kind 4 + length 8). Flip
	// one of its bytes, then recompute the trailing checksum so only the
	// manifest check can object.
	tampered[manifestOffset(tampered)+12] ^= 0xff
	reseal(tampered)

	_, _, err := ReadBundle(bytes.NewReader(tampered))
	if err == nil {
		t.Fatal("bundle with mismatched manifest fingerprint loaded without error")
	}
	if !strings.Contains(err.Error(), "manifest") {
		t.Errorf("error %v does not name the manifest mismatch", err)
	}
}

// TestBundleRejectsTrailingData checks extra bytes after the checksum
// footer are rejected.
func TestBundleRejectsTrailingData(t *testing.T) {
	full := writeBundleBytes(t, orderedSets())
	if _, _, err := ReadBundle(bytes.NewReader(append(bytes.Clone(full), 0))); err == nil {
		t.Fatal("bundle with trailing garbage loaded without error")
	}
}

// TestBundleReportsReadError checks that a reader failing after the whole
// bundle is reported as that failure, not as trailing data.
func TestBundleReportsReadError(t *testing.T) {
	full := writeBundleBytes(t, orderedSets())
	errRead := errors.New("device gone")
	_, err := ReadStore(io.MultiReader(bytes.NewReader(full), iotest.ErrReader(errRead)))
	if !errors.Is(err, errRead) {
		t.Fatalf("ReadStore error = %v, want the reader's %v", err, errRead)
	}
}

// TestBundleRejectsHeaderDamage covers the explicit header checks.
func TestBundleRejectsHeaderDamage(t *testing.T) {
	full := writeBundleBytes(t, orderedSets())

	badMagic := bytes.Clone(full)
	badMagic[0] = 'X'
	if _, _, err := ReadBundle(bytes.NewReader(badMagic)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: got %v, want magic error", err)
	}

	badVersion := bytes.Clone(full)
	badVersion[8] = 99
	if _, _, err := ReadBundle(bytes.NewReader(badVersion)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: got %v, want version error", err)
	}

	badCount := bytes.Clone(full)
	badCount[12] = 200
	if _, _, err := ReadBundle(bytes.NewReader(badCount)); err == nil || !strings.Contains(err.Error(), "count") {
		t.Errorf("bad count: got %v, want count error", err)
	}
}

// TestReadStoreDispatch: ReadStore decodes a bundle — generation
// included — and rejects junk.
func TestReadStoreDispatch(t *testing.T) {
	bundle := writeBundleBytes(t, orderedSets())
	b, err := ReadStore(bytes.NewReader(bundle))
	if err != nil || len(b.Snaps) != 3 {
		t.Fatalf("ReadStore(bundle) = %+v, %v; want 3 members, nil", b, err)
	}
	if b.Generation != 7 {
		t.Errorf("ReadStore(bundle) generation = %d, want the written 7", b.Generation)
	}

	for _, junk := range []string{"", "tiny", "neither a snapshot nor a bundle"} {
		if _, err := ReadStore(strings.NewReader(junk)); err == nil {
			t.Errorf("ReadStore accepted %q", junk)
		}
	}
}

// TestBundleGenerationCovered: the generation field is under the stream
// checksum — a flipped generation byte cannot smuggle a stale
// cache-busting token past the reader.
func TestBundleGenerationCovered(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBundle(&buf, []*PatternSet{temporalSet()}, snapshotTerm, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The generation sits at offset 16 (magic 8 + version 4 + count 4).
	for off := 16; off < 24; off++ {
		corrupt := bytes.Clone(full)
		corrupt[off] ^= 0xff
		if _, _, err := ReadBundle(bytes.NewReader(corrupt)); err == nil {
			t.Errorf("flipped generation byte %d loaded without error", off)
		}
	}
}

// TestBundleRejectsRetiredVersions: the header versions this tree once
// wrote (1, 2, 3) and a bare member stream — the retired top-level
// ".stb" artifact — are refused by name, not misread.
func TestBundleRejectsRetiredVersions(t *testing.T) {
	full := writeBundleBytes(t, orderedSets())
	for _, version := range []byte{1, 2, 3} {
		old := bytes.Clone(full)
		old[8] = version
		reseal(old)
		if _, err := ReadStore(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "unsupported bundle version") {
			t.Errorf("version %d header: got %v, want an unsupported-version error", version, err)
		}
	}
	var bare bytes.Buffer
	if err := WriteSnapshot(&bare, regionalSet(), snapshotTerm); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStore(&bare); err == nil || !strings.Contains(err.Error(), "not a pattern-index bundle") {
		t.Errorf("bare member stream: got %v, want a not-a-bundle error", err)
	}
}

// TestBundleRejectsOversizedBlocks: a scheme tag, subscription count or
// subscription record past its bound is refused at its length prefix,
// before anything of that size is allocated — the checksum is resealed,
// so only the bound can object.
func TestBundleRejectsOversizedBlocks(t *testing.T) {
	full := bundleBytes(t, goldenBundle())
	subs := manifestOffset(full)
	for _, blob := range goldenBundle().Subs {
		subs -= 4 + len(blob)
	}
	le := binary.LittleEndian
	for name, tc := range map[string]struct {
		off   int
		value uint32
		want  string
	}{
		"scheme tag":          {32, maxShardSchemeLen + 1, "scheme tag longer"},
		"subscription count":  {subs - 4, maxBundleSubs + 1, "subscription count"},
		"subscription record": {subs, maxBundleSubBytes + 1, "subscription record 0 longer"},
	} {
		bad := bytes.Clone(full)
		le.PutUint32(bad[tc.off:], tc.value)
		reseal(bad)
		if _, err := ReadStore(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s past its bound: got %v, want %q", name, err, tc.want)
		}
	}
}

// TestGoldenV4Bundle: testdata/v4.bundle was written by the last tree
// that still chose between four header versions (commit a7de0a8), from
// goldenBundle's content. The one layout kept is byte for byte that
// tree's version 4, and the file reads back whole.
func TestGoldenV4Bundle(t *testing.T) {
	golden, err := os.ReadFile("testdata/v4.bundle")
	if err != nil {
		t.Fatal(err)
	}
	want := goldenBundle()
	if got := bundleBytes(t, want); !bytes.Equal(got, golden) {
		t.Fatalf("Bundle.Write produced %d bytes that differ from the %d-byte golden file", len(got), len(golden))
	}
	b, err := ReadStore(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("ReadStore(golden): %v", err)
	}
	if b.Generation != want.Generation || b.Shard != want.Shard {
		t.Errorf("golden header = gen %d, %+v; want %d, %+v", b.Generation, b.Shard, want.Generation, want.Shard)
	}
	if len(b.Subs) != len(want.Subs) || !bytes.Equal(b.Subs[0], want.Subs[0]) || !bytes.Equal(b.Subs[1], want.Subs[1]) {
		t.Errorf("golden subscriptions = %q, want %q", b.Subs, want.Subs)
	}
	if len(b.Snaps) != len(want.Sets) {
		t.Fatalf("golden holds %d members, want %d", len(b.Snaps), len(want.Sets))
	}
	for i, snap := range b.Snaps {
		if snap.Set.Fingerprint() != want.Sets[i].Fingerprint() {
			t.Errorf("golden member %v fingerprint differs from the fixture set", snap.Set.Kind())
		}
	}
}

// TestOneMemberBundleWrapsSnapshotBytes: a single-kind artifact is a
// one-member bundle — at generation 0, exactly the 72-byte degenerate
// header, one 44-byte manifest entry, WriteSnapshot's bytes untouched,
// and the 32-byte checksum.
func TestOneMemberBundleWrapsSnapshotBytes(t *testing.T) {
	for name, set := range allKindSets() {
		var member bytes.Buffer
		if err := WriteSnapshot(&member, set, snapshotTerm); err != nil {
			t.Fatal(err)
		}
		full := bundleBytes(t, &Bundle{Sets: []*PatternSet{set}, Shard: ShardInfo{Shards: 1}})
		if want := 72 + 44 + member.Len() + sha256.Size; len(full) != want {
			t.Fatalf("%s: one-member bundle is %d bytes, want %d", name, len(full), want)
		}
		if manifestOffset(full) != 72 {
			t.Errorf("%s: manifest starts at %d, want 72", name, manifestOffset(full))
		}
		if !bytes.Equal(full[72+44:len(full)-sha256.Size], member.Bytes()) {
			t.Errorf("%s: the member bytes are not WriteSnapshot's", name)
		}
	}
}
