package search

import (
	"bytes"
	"context"
	"io"
	"testing"

	"stburst/internal/gen"
	"stburst/internal/index"
)

// BenchmarkBundleCodec times the bundle codec on all three kinds mined
// from the generated Topix corpus of bench/'s xs size. read decodes the
// whole bundle with every check. write encodes sets that were decoded
// and re-interned with the timer stopped, so each iteration pays the
// sets' first fingerprint, as a save of freshly loaded sets does.
func BenchmarkBundleCodec(b *testing.B) {
	tp, err := gen.NewTopix(gen.TopixConfig{Seed: 1, WeeklyArticles: 0.2, Vocab: 150, TokensPerArticle: 8})
	if err != nil {
		b.Fatal(err)
	}
	col := tp.Col
	kinds := []index.PatternKind{index.KindRegional, index.KindCombinatorial, index.KindTemporal}
	prev := make([]*index.PatternSet, len(kinds))
	for i, k := range kinds {
		prev[i] = index.EmptySet(k)
	}
	sets, err := MineSets(context.Background(), col, col.Terms(), prev, &index.MineOptions{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := index.WriteBundle(&buf, sets, col.Dict().Term, 0); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := index.ReadStore(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := index.ReadStore(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			fresh := make([]*index.PatternSet, len(st.Snaps))
			for j, snap := range st.Snaps {
				if fresh[j], err = snap.Remap(col.Dict().Lookup); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if err := index.WriteBundle(io.Discard, fresh, col.Dict().Term, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
