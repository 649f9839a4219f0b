package search

import (
	"context"
	"runtime"
	"testing"

	"stburst/internal/core"
	"stburst/internal/gen"
	"stburst/internal/geo"
	"stburst/internal/index"
)

// pinnedFingerprints are the pattern-set fingerprints of every kind mined
// from the generated Topix corpus below, captured before the miners'
// kernels (the exact rectangle finder and the clique sweep) were last
// rewritten. Every other oracle in the tree compares two paths of the
// same build; this one compares the build against a constant, so a
// kernel change that moves a single float bit fails here. Update a
// constant only for a deliberate change of mined output, and say so in
// the commit message.
var pinnedFingerprints = map[string]string{
	"regional":      "ce6886879a7ca541dba89bc205ccf5e8213ef8c84947c6dd4b2cc6bd96ede2c5",
	"regional/grid": "0a7c5292c25beb509af4beddad244563140cfba52e66739a4398eeda3b9d08d9",
	"combinatorial": "133fbe03f9df6d3c2020c8e89c95af37a84ee0bea49f1c47f590d7536a292db8",
	"temporal":      "763eb7e280bb95802dd1df7ad923a21803290f95cdcd848447a6eca4c43ea027",
}

// TestMinedFingerprintsPinned mines all three kinds (and the regional
// kind once more through the grid finder) over the Topix corpus the
// benchmark calls xs and compares each set's fingerprint with its pin.
//
// The pins are amd64 facts. The Go spec lets other architectures fuse
// x*y + z into one FMA, and the generator and the stream-location
// projection contain such expressions, so an arm64 corpus can differ
// bit for bit before any miner runs.
func TestMinedFingerprintsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are pinned on amd64; %s may fuse multiply-adds in the generator and projection", runtime.GOARCH)
	}
	tp, err := gen.NewTopix(gen.TopixConfig{Seed: 1, WeeklyArticles: 0.2, Vocab: 150, TokensPerArticle: 8})
	if err != nil {
		t.Fatal(err)
	}
	col := tp.Col
	kinds := []index.PatternKind{index.KindRegional, index.KindCombinatorial, index.KindTemporal}
	prev := make([]*index.PatternSet, len(kinds))
	for i, k := range kinds {
		prev[i] = index.EmptySet(k)
	}
	sets, err := MineSets(context.Background(), col, col.Terms(), prev, &index.MineOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, s := range sets {
		got[s.Kind().String()] = s.Fingerprint()
	}
	mbr, _ := geo.MBR(col.Points())
	grid := &index.MineOptions{Local: core.STLocalOptions{Finder: core.GridFinder(mbr, 12)}}
	sets, err = MineSets(context.Background(), col, col.Terms(), prev[:1], grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	got["regional/grid"] = sets[0].Fingerprint()
	for name, want := range pinnedFingerprints {
		if got[name] != want {
			t.Errorf("%s fingerprint = %s, pinned %s — mined output changed", name, got[name], want)
		}
	}
}
