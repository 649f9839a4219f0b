package core

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - exact vs. grid-aggregated rectangle finder inside STLocal
//     (fidelity vs. the near-linear scaling of Fig. 8);
//   - discrepancy vs. Kleinberg per-stream detector inside STComb
//     (the paper's §3 notes any non-overlapping-interval framework fits);
//   - offline STComb re-run vs. the online variant's incremental update
//     (the §8 future-work item);
//   - sequence pruning (Algorithm 2's S.total<0 rule) on vs. off, by
//     counting the open sequences a no-prune run would accumulate.

import (
	"math/rand"
	"testing"

	"stburst/internal/burst"
	"stburst/internal/geo"
)

// ablationData builds a dense synthetic surface with a few injected
// bursts: the regime where the finder choice matters.
func ablationData(n, L int) ([]geo.Point, [][]float64) {
	rng := rand.New(rand.NewSource(99))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	surface := make([][]float64, n)
	for x := range surface {
		surface[x] = make([]float64, L)
		for i := range surface[x] {
			surface[x][i] = rng.ExpFloat64()
		}
	}
	for b := 0; b < 4; b++ {
		cx := rng.Intn(n)
		start := rng.Intn(L - 10)
		for x := 0; x < n; x++ {
			if geo.Dist(pts[x], pts[cx]) < 15 {
				for i := start; i < start+8; i++ {
					surface[x][i] += 12
				}
			}
		}
	}
	return pts, surface
}

func benchSTLocalFinder(b *testing.B, finder RectFinder) {
	pts, surface := ablationData(181, 48)
	obs := make([]float64, len(pts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewSTLocal(pts, STLocalOptions{Finder: finder})
		for t := 0; t < 48; t++ {
			for x := range surface {
				obs[x] = surface[x][t]
			}
			if err := m.Push(obs); err != nil {
				b.Fatal(err)
			}
		}
		m.Windows()
	}
}

func BenchmarkAblationSTLocalExactFinder(b *testing.B) {
	benchSTLocalFinder(b, ExactFinder())
}

func BenchmarkAblationSTLocalGridFinder(b *testing.B) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	benchSTLocalFinder(b, GridFinder(bounds, 24))
}

func benchSTCombDetector(b *testing.B, det burst.Detector) {
	_, surface := ablationData(181, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		STComb(surface, STCombOptions{Detector: det})
	}
}

func BenchmarkAblationSTCombDiscrepancy(b *testing.B) {
	benchSTCombDetector(b, burst.Discrepancy{})
}

func BenchmarkAblationSTCombKleinberg(b *testing.B) {
	benchSTCombDetector(b, burst.Kleinberg{})
}

// Offline STComb must reprocess the whole prefix per timestamp; the
// online variant pays O(n) per push. These two benchmarks measure one
// full stream's worth of per-timestamp updates under each regime.
func BenchmarkAblationSTCombOfflinePerUpdate(b *testing.B) {
	_, surface := ablationData(64, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 1; t <= 48; t++ {
			prefix := make([][]float64, len(surface))
			for x := range surface {
				prefix[x] = surface[x][:t]
			}
			STComb(prefix, STCombOptions{})
		}
	}
}

func BenchmarkAblationSTCombOnlinePerUpdate(b *testing.B) {
	_, surface := ablationData(64, 48)
	obs := make([]float64, len(surface))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewOnlineSTComb(len(surface), nil)
		for t := 0; t < 48; t++ {
			for x := range surface {
				obs[x] = surface[x][t]
			}
			if err := m.Push(obs); err != nil {
				b.Fatal(err)
			}
			m.Patterns(1)
		}
	}
}

// Pruning ablation: Algorithm 2 retires a region's sequence once its
// running total goes negative. The benchmark reports how many sequences
// stay open with the rule active; TestSTLocalPruningLosesNoWindows
// verifies the rule is lossless.
func BenchmarkAblationSTLocalPruning(b *testing.B) {
	pts, surface := ablationData(181, 48)
	obs := make([]float64, len(pts))
	b.ReportAllocs()
	b.ResetTimer()
	var open, created int
	for i := 0; i < b.N; i++ {
		m := NewSTLocal(pts, STLocalOptions{})
		for t := 0; t < 48; t++ {
			for x := range surface {
				obs[x] = surface[x][t]
			}
			if err := m.Push(obs); err != nil {
				b.Fatal(err)
			}
		}
		open = m.Open()
		created = m.CreatedSequences()
	}
	b.ReportMetric(float64(open), "open-seqs")
	b.ReportMetric(float64(created), "created-seqs")
}
