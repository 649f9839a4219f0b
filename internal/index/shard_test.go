package index

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testCorpusFingerprint is a syntactically valid hex SHA-256 standing in
// for a real Collection checksum.
var testCorpusFingerprint = strings.Repeat("ab", 32)

func TestTermShardDeterministicAndInRange(t *testing.T) {
	terms := []string{"earthquake", "rescue", "flood", "term000", "a", "", "übergang"}
	for _, shards := range []int{1, 2, 3, 4, 7} {
		for _, term := range terms {
			got := TermShard(term, shards)
			if got < 0 || got >= shards {
				t.Fatalf("TermShard(%q, %d) = %d, outside [0, %d)", term, shards, got, shards)
			}
			if again := TermShard(term, shards); again != got {
				t.Fatalf("TermShard(%q, %d) not deterministic: %d then %d", term, shards, got, again)
			}
		}
	}
	for _, term := range terms {
		if got := TermShard(term, 1); got != 0 {
			t.Errorf("TermShard(%q, 1) = %d, want 0", term, got)
		}
	}
	// The partition must spread a real vocabulary: over 64 distinct terms
	// and 2 shards, both shards must own something.
	owned := map[int]bool{}
	for i := 0; i < 64; i++ {
		owned[TermShard(snapshotTerm(i), 2)] = true
	}
	if len(owned) != 2 {
		t.Errorf("TermShard sent 64 terms to a single shard of 2")
	}
}

// TestSplitSetsPartition splits all three kinds and checks the result is
// a true partition: every term lands on exactly the shard TermShard
// names, nothing is lost, nothing is duplicated, and every shard keeps
// one member per kind in ascending kind order.
func TestSplitSetsPartition(t *testing.T) {
	sets := []*PatternSet{regionalSet(), combSet(), temporalSet()}
	const shards = 3
	parts, err := SplitSets(sets, snapshotTerm, shards)
	if err != nil {
		t.Fatalf("SplitSets: %v", err)
	}
	if len(parts) != shards {
		t.Fatalf("SplitSets returned %d shards, want %d", len(parts), shards)
	}
	for si, part := range parts {
		if len(part) != len(sets) {
			t.Fatalf("shard %d holds %d member sets, want %d", si, len(part), len(sets))
		}
		for ki, s := range part {
			if s.Kind() != sets[ki].Kind() {
				t.Fatalf("shard %d member %d has kind %v, want %v", si, ki, s.Kind(), sets[ki].Kind())
			}
			for _, id := range s.Terms() {
				if want := TermShard(snapshotTerm(id), shards); want != si {
					t.Errorf("term %d (kind %v) landed on shard %d, TermShard says %d", id, s.Kind(), si, want)
				}
			}
		}
	}
	for ki, orig := range sets {
		totalTerms, totalPatterns := 0, 0
		for _, part := range parts {
			totalTerms += part[ki].NumTerms()
			totalPatterns += part[ki].NumPatterns()
		}
		if totalTerms != orig.NumTerms() || totalPatterns != orig.NumPatterns() {
			t.Errorf("kind %v: shards hold %d terms / %d patterns, original has %d / %d",
				orig.Kind(), totalTerms, totalPatterns, orig.NumTerms(), orig.NumPatterns())
		}
	}
	if _, err := SplitSets(sets, snapshotTerm, 0); err == nil {
		t.Error("SplitSets accepted 0 shards")
	}
}

func TestShardBundleRoundTrip(t *testing.T) {
	sets := []*PatternSet{regionalSet(), combSet(), temporalSet()}
	info := ShardInfo{Shard: 1, Shards: 3, Scheme: ShardScheme, CorpusFingerprint: testCorpusFingerprint}
	var buf bytes.Buffer
	if err := WriteBundleSharded(&buf, sets, snapshotTerm, 42, info); err != nil {
		t.Fatalf("WriteBundleSharded: %v", err)
	}

	b, err := ReadStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadStore: %v", err)
	}
	if b.Generation != 42 {
		t.Errorf("generation = %d, want 42", b.Generation)
	}
	if b.Shard != info {
		t.Errorf("ShardInfo = %+v, want %+v", b.Shard, info)
	}
	if len(b.Snaps) != len(sets) {
		t.Fatalf("decoded %d members, want %d", len(b.Snaps), len(sets))
	}
	for i, snap := range b.Snaps {
		if snap.Set.Fingerprint() != sets[i].Fingerprint() {
			t.Errorf("member %d fingerprint changed across the round trip", i)
		}
	}

	// The shard-blind door must accept the same stream.
	if _, gen2, err := ReadBundle(bytes.NewReader(buf.Bytes())); err != nil || gen2 != 42 {
		t.Errorf("ReadBundle on a shard bundle = gen %d, %v; want 42, nil", gen2, err)
	}
}

// TestShardBundleEmptyMember checks a shard that owns no terms of a kind
// still round-trips: SplitSets always emits all kinds, so small shards
// routinely carry empty members.
func TestShardBundleEmptyMember(t *testing.T) {
	sets := []*PatternSet{NewWindowSet(nil), temporalSet()}
	info := ShardInfo{Shard: 0, Shards: 2, Scheme: ShardScheme}
	var buf bytes.Buffer
	if err := WriteBundleSharded(&buf, sets, snapshotTerm, 0, info); err != nil {
		t.Fatalf("WriteBundleSharded with empty member: %v", err)
	}
	b, err := ReadStore(&buf)
	if err != nil {
		t.Fatalf("ReadStore: %v", err)
	}
	if b.Shard != info {
		t.Errorf("ShardInfo = %+v, want %+v", b.Shard, info)
	}
	if b.Snaps[0].Set.NumTerms() != 0 || b.Snaps[1].Set.NumPatterns() == 0 {
		t.Errorf("empty/non-empty member shape lost: %d terms, %d patterns",
			b.Snaps[0].Set.NumTerms(), b.Snaps[1].Set.NumPatterns())
	}
}

func TestUnshardedBundleReadsAsWholePartition(t *testing.T) {
	sets := []*PatternSet{regionalSet()}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, sets, snapshotTerm, 7); err != nil {
		t.Fatal(err)
	}
	b, err := ReadStore(&buf)
	if err != nil {
		t.Fatalf("ReadStore: %v", err)
	}
	if want := (ShardInfo{Shards: 1}); b.Shard != want {
		t.Errorf("unsharded bundle ShardInfo = %+v, want %+v", b.Shard, want)
	}
}

func TestWriteBundleShardedRejectsBadInfo(t *testing.T) {
	sets := []*PatternSet{regionalSet()}
	cases := map[string]ShardInfo{
		"zero shards":       {Shard: 0, Shards: 0},
		"negative shard":    {Shard: -1, Shards: 2, Scheme: ShardScheme},
		"shard past count":  {Shard: 2, Shards: 2, Scheme: ShardScheme},
		"missing scheme":    {Shard: 0, Shards: 2},
		"oversized scheme":  {Shard: 0, Shards: 2, Scheme: strings.Repeat("x", maxShardSchemeLen+1)},
		"bad fingerprint":   {Shard: 0, Shards: 2, Scheme: ShardScheme, CorpusFingerprint: "not-hex"},
		"short fingerprint": {Shard: 0, Shards: 2, Scheme: ShardScheme, CorpusFingerprint: "abcd"},
	}
	for name, info := range cases {
		var buf bytes.Buffer
		if err := WriteBundleSharded(&buf, sets, snapshotTerm, 0, info); err == nil {
			t.Errorf("WriteBundleSharded accepted %s (%+v)", name, info)
		}
	}
}

// TestShardBundleRejectsCorruption flips every byte of a shard bundle in
// turn; the trailing checksum (which also covers the shard block) must
// catch each one.
func TestShardBundleRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	info := ShardInfo{Shard: 2, Shards: 3, Scheme: ShardScheme, CorpusFingerprint: testCorpusFingerprint}
	if err := WriteBundleSharded(&buf, []*PatternSet{regionalSet(), temporalSet()}, snapshotTerm, 9, info); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0x01
		if _, err := ReadStore(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d of %d accepted", i, len(good))
		}
	}
	// Truncation at any point must also fail.
	for _, cut := range []int{0, 8, 16, 24, 30, len(good) / 2, len(good) - 1} {
		if _, err := ReadStore(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestWriteBundleShardedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.bundle")
	info := ShardInfo{Shard: 0, Shards: 2, Scheme: ShardScheme, CorpusFingerprint: testCorpusFingerprint}
	if err := (&Bundle{Sets: []*PatternSet{combSet()}, Generation: 5, Shard: info}).WriteFile(path, snapshotTerm); err != nil {
		t.Fatalf("Bundle.WriteFile: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("bundle file mode = %v, want 0644", fi.Mode().Perm())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := ReadStore(f)
	if err != nil {
		t.Fatalf("ReadStore: %v", err)
	}
	if b.Generation != 5 || b.Shard != info {
		t.Errorf("file round trip = gen %d, %+v; want 5, %+v", b.Generation, b.Shard, info)
	}
}
