package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stburst/internal/geo"
	"stburst/internal/index"
	"stburst/internal/stream"
)

// mineCollection builds a small corpus with one localized burst so every
// miner has patterns to report.
func mineCollection(t *testing.T) *stream.Collection {
	t.Helper()
	col := stream.NewCollection([]stream.Info{
		{Name: "lima", Location: geo.Point{X: 0, Y: 0}},
		{Name: "quito", Location: geo.Point{X: 2, Y: 1}},
		{Name: "tokyo", Location: geo.Point{X: 90, Y: 80}},
	}, 10)
	add := func(s, w int, text string) {
		t.Helper()
		if _, err := col.AddTokens(s, w, strings.Fields(text)); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 10; w++ {
		add(0, w, "markets calm trading")
		add(1, w, "football weather outlook")
		add(2, w, "exports quarterly report")
	}
	for w := 4; w <= 6; w++ {
		for i := 0; i < 3; i++ {
			add(0, w, "earthquake rescue earthquake")
			add(1, w, "earthquake tremors")
		}
	}
	return col
}

// readBundle loads the artifact mineAll wrote to path.
func readBundle(t *testing.T, path string) *index.Bundle {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("bundle not written: %v", err)
	}
	defer f.Close()
	b, err := index.ReadStore(f)
	if err != nil {
		t.Fatalf("written bundle does not load: %v", err)
	}
	return b
}

// TestMineAllSingleKindSnapshot: the single-kind batch path writes a
// loadable one-member bundle of the asked kind, and prints a ranked
// pattern listing.
func TestMineAllSingleKindSnapshot(t *testing.T) {
	col := mineCollection(t)
	for _, method := range []string{"stlocal", "stcomb", "temporal"} {
		t.Run(method, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), method+".bundle")
			var out bytes.Buffer
			if err := mineAll(&out, io.Discard, col, method, 5, 1, path, 1); err != nil {
				t.Fatalf("mineAll(%s) = %v", method, err)
			}
			if !strings.Contains(out.String(), "#1") {
				t.Errorf("mineAll(%s) printed no ranked patterns:\n%s", method, out.String())
			}
			b := readBundle(t, path)
			want, _ := index.ParseKind(method)
			if len(b.Snaps) != 1 || b.Snaps[0].Set.Kind() != want {
				t.Fatalf("bundle holds %d members, want one %v member", len(b.Snaps), want)
			}
			if b.Snaps[0].Set.NumPatterns() == 0 {
				t.Errorf("bundle member holds no patterns")
			}
		})
	}
}

// TestMineTerm: single-term mode prints the term's k best patterns
// through the same formatter as the corpus-wide listing, and an unknown
// term is a data error (exit 1).
func TestMineTerm(t *testing.T) {
	col := mineCollection(t)
	for method, want := range map[string]string{"stlocal": "#1  w-score ", "stcomb": "#1  score "} {
		var out bytes.Buffer
		if err := mineTerm(&out, col, "earthquake", method, 1); err != nil {
			t.Fatalf("mineTerm(%s) = %v", method, err)
		}
		if !strings.HasPrefix(out.String(), want) || strings.Count(out.String(), "\n") != 1 {
			t.Errorf("mineTerm(%s, k=1) printed:\n%s", method, out.String())
		}
	}
	if err := mineTerm(io.Discard, col, "nosuchterm", "stlocal", 1); err == nil || exitCode(err) != 1 {
		t.Errorf("unknown term: err=%v, want a data error (exit 1)", err)
	}
}

// TestMineAllUnknownMethod: a bad method is a usage error (exit 2), not
// a mining failure.
func TestMineAllUnknownMethod(t *testing.T) {
	err := mineAll(io.Discard, io.Discard, mineCollection(t), "nope", 5, 1, "", 1)
	if err == nil {
		t.Fatal("mineAll accepted an unknown method")
	}
	if exitCode(err) != 2 {
		t.Errorf("exitCode = %d, want 2 for a usage error", exitCode(err))
	}
}

// TestMineAllKindsBundle: -method all mines the three kinds in one pass
// and writes a bundle whose members match the single-kind miners bit for
// bit.
func TestMineAllKindsBundle(t *testing.T) {
	col := mineCollection(t)
	path := filepath.Join(t.TempDir(), "corpus.bundle")
	var out, diag bytes.Buffer
	if err := mineAll(&out, &diag, col, "all", 5, 2, path, 1); err != nil {
		t.Fatalf("mineAllKinds = %v", err)
	}
	if !strings.Contains(out.String(), "[regional]") &&
		!strings.Contains(out.String(), "[combinatorial]") &&
		!strings.Contains(out.String(), "[temporal]") {
		t.Errorf("merged listing lacks kind tags:\n%s", out.String())
	}

	snaps := readBundle(t, path).Snaps
	if len(snaps) != 3 {
		t.Fatalf("bundle has %d members, want 3", len(snaps))
	}
	// Each member must be bit-identical to its single-kind miner output.
	singles := map[index.PatternKind]*index.PatternSet{}
	tmp := t.TempDir()
	for _, method := range []string{"stlocal", "stcomb", "temporal"} {
		p := filepath.Join(tmp, method+".bundle")
		if err := mineAll(io.Discard, io.Discard, col, method, 1, 1, p, 1); err != nil {
			t.Fatal(err)
		}
		snap := readBundle(t, p).Snaps[0]
		singles[snap.Set.Kind()] = snap.Set
	}
	for _, snap := range snaps {
		want := singles[snap.Set.Kind()]
		if want == nil {
			t.Fatalf("bundle member kind %v has no single-kind counterpart", snap.Set.Kind())
		}
		if snap.Set.Fingerprint() != want.Fingerprint() {
			t.Errorf("bundle %v member fingerprint differs from the single-kind miner", snap.Set.Kind())
		}
	}
}

// TestFlagValidation: the CLI flag table — every rejected combination is
// a clean usage error (exit 2), every accepted one passes.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name   string
		term   string
		all    bool
		method string
		out    string
		shards int
		ok     bool
	}{
		{name: "single term", term: "earthquake", method: "stlocal", shards: 1, ok: true},
		{name: "all with bundle", all: true, method: "all", out: "corpus.bundle", shards: 1, ok: true},
		{name: "sharded bundle", all: true, method: "all", out: "corpus.bundle", shards: 3, ok: true},
		{name: "no term no all", method: "stlocal", shards: 1, ok: false},
		{name: "output without all", term: "earthquake", method: "stlocal", out: "x.bundle", shards: 1, ok: false},
		{name: "zero shards", all: true, method: "all", out: "corpus.bundle", shards: 0, ok: false},
		{name: "negative shards", all: true, method: "all", out: "corpus.bundle", shards: -2, ok: false},
		{name: "shards without all", term: "earthquake", method: "all", out: "x.bundle", shards: 2, ok: false},
		{name: "shards with single-kind method", all: true, method: "stlocal", out: "x.bundle", shards: 2, ok: false},
		{name: "shards without output", all: true, method: "all", shards: 2, ok: false},
		{name: "paper alias", all: true, method: "tb", shards: 1, ok: true},
		{name: "unknown method", term: "earthquake", method: "nope", shards: 1, ok: false},
		{name: "single term temporal", term: "earthquake", method: "temporal", shards: 1, ok: false},
		{name: "single term all kinds", term: "earthquake", method: "all", shards: 1, ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.term, tc.all, tc.method, tc.out, tc.shards)
			if tc.ok && err != nil {
				t.Fatalf("validateFlags rejected a valid combination: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("validateFlags accepted an invalid combination")
				}
				if exitCode(err) != 2 {
					t.Errorf("exitCode = %d, want 2 for a usage error", exitCode(err))
				}
			}
		})
	}
}

// TestMineAllKindsSharded: -shards splits the vocabulary into per-shard
// bundles that carry their coordinates and corpus checksum, partition
// the terms exactly by index.TermShard, and recombine to the unsharded
// miner's output bit for bit.
func TestMineAllKindsSharded(t *testing.T) {
	col := mineCollection(t)
	const shards = 2
	tmp := t.TempDir()
	base := filepath.Join(tmp, "corpus.bundle")
	var diag bytes.Buffer
	if err := mineAll(io.Discard, &diag, col, "all", 5, 2, base, shards); err != nil {
		t.Fatalf("mineAllKinds sharded = %v", err)
	}

	whole := filepath.Join(tmp, "whole.bundle")
	if err := mineAll(io.Discard, io.Discard, col, "all", 5, 2, whole, 1); err != nil {
		t.Fatal(err)
	}
	wf, err := os.Open(whole)
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	wholeSnaps, _, err := index.ReadBundle(wf)
	if err != nil {
		t.Fatal(err)
	}

	merged := make([]map[int]bool, 3) // per kind: term IDs seen across shards
	for i := range merged {
		merged[i] = map[int]bool{}
	}
	for i := 0; i < shards; i++ {
		path := shardBundlePath(base, i, shards)
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("shard %d bundle not written: %v", i, err)
		}
		b, err := index.ReadStore(f)
		f.Close()
		if err != nil {
			t.Fatalf("shard %d bundle does not load: %v", i, err)
		}
		snaps, gen, info := b.Snaps, b.Generation, b.Shard
		want := index.ShardInfo{Shard: i, Shards: shards, Scheme: index.ShardScheme, CorpusFingerprint: col.Checksum()}
		if info != want || gen != 0 {
			t.Errorf("shard %d identity = %+v gen %d, want %+v gen 0", i, info, gen, want)
		}
		if len(snaps) != 3 {
			t.Fatalf("shard %d bundle has %d members, want 3", i, len(snaps))
		}
		for ki, snap := range snaps {
			for _, id := range snap.Set.Terms() {
				if got := index.TermShard(col.Dict().Term(id), shards); got != i {
					t.Errorf("term %q in shard %d, TermShard says %d", col.Dict().Term(id), i, got)
				}
				if merged[ki][id] {
					t.Errorf("term %q appears in two shards", col.Dict().Term(id))
				}
				merged[ki][id] = true
			}
		}
	}
	for ki, snap := range wholeSnaps {
		if len(merged[ki]) != snap.Set.NumTerms() {
			t.Errorf("kind %v: shards cover %d terms, unsharded miner has %d",
				snap.Set.Kind(), len(merged[ki]), snap.Set.NumTerms())
		}
	}

	// A shard count beyond the vocabulary is a usage error, found only
	// after the corpus loads.
	err = mineAll(io.Discard, io.Discard, col, "all", 5, 1, filepath.Join(tmp, "x.bundle"), col.Dict().Len()+1)
	if err == nil || exitCode(err) != 2 {
		t.Errorf("oversized -shards: err=%v exitCode=%d, want usage error exit 2", err, exitCode(err))
	}
}
