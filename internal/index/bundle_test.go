package index

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"
)

// orderedSets returns one set of each kind in the canonical bundle
// member order.
func orderedSets() []*PatternSet {
	return []*PatternSet{regionalSet(), combSet(), temporalSet()}
}

// writeBundleBytes serializes the sets and returns the raw bundle.
func writeBundleBytes(t *testing.T, sets []*PatternSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBundle(&buf, sets, snapshotTerm, 7); err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	return buf.Bytes()
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
	// Manifest entry starts at 24 (magic 8 + version 4 + count 4 +
	// generation 8); its fingerprint at +12. Flip a fingerprint byte,
	// then recompute the trailing checksum so only the manifest check
	// can object.
	tampered[24+12] ^= 0xff
	payload := tampered[:len(tampered)-sha256.Size]
	sum := sha256.Sum256(payload)
	copy(tampered[len(tampered)-sha256.Size:], sum[:])

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

// TestReadStoreDispatch: ReadStore accepts both a bundle and a bare
// snapshot, and rejects junk.
func TestReadStoreDispatch(t *testing.T) {
	bundle := writeBundleBytes(t, orderedSets())
	b, err := ReadStore(bytes.NewReader(bundle))
	if err != nil || len(b.Snaps) != 3 {
		t.Fatalf("ReadStore(bundle) = %+v, %v; want 3 members, nil", b, err)
	}
	if b.Generation != 7 {
		t.Errorf("ReadStore(bundle) generation = %d, want the written 7", b.Generation)
	}

	var buf bytes.Buffer
	if err := writeSnapshotVersion(&buf, regionalSet(), snapshotTerm, 3, SnapshotVersion); err != nil {
		t.Fatal(err)
	}
	b, err = ReadStore(bytes.NewReader(buf.Bytes()))
	if err != nil || len(b.Snaps) != 1 {
		t.Fatalf("ReadStore(snapshot) = %+v, %v; want 1 member, nil", b, err)
	}
	if b.Snaps[0].Set.Kind() != KindRegional {
		t.Errorf("snapshot dispatch decoded kind %v", b.Snaps[0].Set.Kind())
	}
	if b.Generation != 3 {
		t.Errorf("ReadStore(snapshot) generation = %d, want the snapshot's own 3", b.Generation)
	}

	for _, junk := range []string{"", "tiny", "neither a snapshot nor a bundle"} {
		if _, err := ReadStore(strings.NewReader(junk)); err == nil {
			t.Errorf("ReadStore accepted %q", junk)
		}
	}
}
