package index

import (
	"bytes"
	"testing"
)

// TestSnapshotCrossVersion: the v2 reader accepts a genuine version-1
// stream (no generation field) as generation 0 with identical content,
// and a v2 stream round-trips its generation.
func TestSnapshotCrossVersion(t *testing.T) {
	for _, set := range orderedSets() {
		var v1, v2 bytes.Buffer
		if err := writeSnapshotVersion(&v1, set, snapshotTerm, 0, 1); err != nil {
			t.Fatalf("writing v1 %v snapshot: %v", set.Kind(), err)
		}
		if err := writeSnapshotVersion(&v2, set, snapshotTerm, 42, SnapshotVersion); err != nil {
			t.Fatalf("writing v2 %v snapshot: %v", set.Kind(), err)
		}
		if bytes.Equal(v1.Bytes(), v2.Bytes()) {
			t.Fatal("v1 and v2 streams are identical; the version plumbing is inert")
		}

		legacy, err := ReadSnapshot(bytes.NewReader(v1.Bytes()))
		if err != nil {
			t.Fatalf("reading v1 %v snapshot: %v", set.Kind(), err)
		}
		if legacy.Generation != 0 {
			t.Errorf("v1 %v snapshot decoded generation %d, want 0", set.Kind(), legacy.Generation)
		}
		if got, want := legacy.Set.Fingerprint(), set.Fingerprint(); got != want {
			t.Errorf("v1 %v snapshot content fingerprint %s, want %s", set.Kind(), got, want)
		}

		fresh, err := ReadSnapshot(bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatalf("reading v2 %v snapshot: %v", set.Kind(), err)
		}
		if fresh.Generation != 42 {
			t.Errorf("v2 %v snapshot decoded generation %d, want 42", set.Kind(), fresh.Generation)
		}
		if got, want := fresh.Set.Fingerprint(), set.Fingerprint(); got != want {
			t.Errorf("v2 %v snapshot content fingerprint %s, want %s", set.Kind(), got, want)
		}
	}
}

// TestBundleCrossVersion: a genuine version-1 bundle — v1 header, v1
// member snapshots — loads through the v2 reader as generation 0 with
// identical members, and the v1 stream is corruption-checked just as
// strictly.
func TestBundleCrossVersion(t *testing.T) {
	sets := orderedSets()
	var v1 bytes.Buffer
	if err := writeBundleVersion(&v1, &Bundle{Sets: sets, Shard: ShardInfo{Shards: 1}}, snapshotTerm, 1); err != nil {
		t.Fatalf("writing v1 bundle: %v", err)
	}
	snaps, gen, err := ReadBundle(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatalf("reading v1 bundle: %v", err)
	}
	if gen != 0 {
		t.Errorf("v1 bundle decoded generation %d, want 0", gen)
	}
	if len(snaps) != len(sets) {
		t.Fatalf("v1 bundle decoded %d members, want %d", len(snaps), len(sets))
	}
	for i, snap := range snaps {
		if got, want := snap.Set.Fingerprint(), sets[i].Fingerprint(); got != want {
			t.Errorf("v1 bundle member %v fingerprint %s, want %s", sets[i].Kind(), got, want)
		}
		if snap.Generation != 0 {
			t.Errorf("v1 bundle member %v carries generation %d", sets[i].Kind(), snap.Generation)
		}
	}

	// ReadStore sniffs and dispatches the legacy stream too.
	if b, err := ReadStore(bytes.NewReader(v1.Bytes())); err != nil || len(b.Snaps) != len(sets) || b.Generation != 0 {
		t.Fatalf("ReadStore(v1 bundle) = %+v, %v", b, err)
	}

	// Every flipped byte of the v1 stream is still caught.
	full := v1.Bytes()
	for _, i := range []int{8, 20, len(full) / 2, len(full) - 1} {
		corrupt := bytes.Clone(full)
		corrupt[i] ^= 0xff
		if _, _, err := ReadBundle(bytes.NewReader(corrupt)); err == nil {
			t.Errorf("v1 bundle with byte %d flipped loaded without error", i)
		}
	}
}

// TestBundleGenerationCovered: the v2 generation field is under the
// stream checksum — a flipped generation byte cannot smuggle a stale
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
