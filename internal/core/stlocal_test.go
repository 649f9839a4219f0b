package core

import (
	"math"
	"math/rand"
	"testing"

	"stburst/internal/expect"
	"stburst/internal/gen"
	"stburst/internal/geo"
)

// pushSurface feeds a full surface (streams × timeline) into the miner.
func pushSurface(t *testing.T, m *STLocal, surface [][]float64) {
	t.Helper()
	obs := make([]float64, len(surface))
	for i := 0; i < len(surface[0]); i++ {
		for x := range surface {
			obs[x] = surface[x][i]
		}
		if err := m.Push(obs); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSTLocalPushValidation(t *testing.T) {
	m := NewSTLocal(line(3), STLocalOptions{})
	if err := m.Push([]float64{1}); err == nil {
		t.Fatal("short snapshot should error")
	}
}

func TestSTLocalQuietStreamsNoWindows(t *testing.T) {
	m := NewSTLocal(line(4), STLocalOptions{})
	for i := 0; i < 10; i++ {
		if err := m.Push([]float64{1, 1, 1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if ws := m.Windows(); len(ws) != 0 {
		t.Fatalf("flat input produced windows: %+v", ws)
	}
	if m.TotalRectCount() != 0 {
		t.Fatalf("flat input produced %d rectangles", m.TotalRectCount())
	}
}

func TestSTLocalDetectsLocalizedBurst(t *testing.T) {
	// Streams 0,1 are adjacent; 2,3 far away. Streams 0,1 burst during
	// timestamps [4,7].
	pts := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 100, Y: 100}, {X: 101, Y: 100}}
	m := NewSTLocal(pts, STLocalOptions{})
	L := 12
	for i := 0; i < L; i++ {
		obs := []float64{1, 1, 1, 1}
		if i >= 4 && i <= 7 {
			obs[0], obs[1] = 20, 25
		}
		if err := m.Push(obs); err != nil {
			t.Fatal(err)
		}
	}
	ws := m.Windows()
	if len(ws) == 0 {
		t.Fatal("no windows found")
	}
	best, _ := BestWindow(ws)
	if !best.ContainsStream(0) || !best.ContainsStream(1) {
		t.Fatalf("best window %+v should contain streams 0 and 1", best)
	}
	if best.ContainsStream(2) || best.ContainsStream(3) {
		t.Fatalf("best window %+v should exclude the far streams", best)
	}
	if best.Start > 4 || best.End < 7 {
		t.Fatalf("best window [%d,%d] should cover the burst [4,7]", best.Start, best.End)
	}
	if best.Score <= 0 {
		t.Fatalf("best window score %v, want positive", best.Score)
	}
}

func TestSTLocalTwoSeparateRegions(t *testing.T) {
	// Two distant clusters burst at different times: two distinct windows.
	pts := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 200, Y: 200}, {X: 201, Y: 201}}
	m := NewSTLocal(pts, STLocalOptions{})
	for i := 0; i < 20; i++ {
		obs := []float64{1, 1, 1, 1}
		if i >= 3 && i <= 5 {
			obs[0], obs[1] = 15, 15
		}
		if i >= 12 && i <= 14 {
			obs[2], obs[3] = 18, 18
		}
		if err := m.Push(obs); err != nil {
			t.Fatal(err)
		}
	}
	ws := m.Windows()
	var west, east bool
	for _, w := range ws {
		if w.ContainsStream(0) && w.ContainsStream(1) && !w.ContainsStream(2) {
			if w.Start <= 3 && w.End >= 5 || (w.Start >= 3 && w.Start <= 5) {
				west = true
			}
		}
		if w.ContainsStream(2) && w.ContainsStream(3) && !w.ContainsStream(0) {
			east = true
		}
	}
	if !west || !east {
		t.Fatalf("expected one window per cluster, got %+v", ws)
	}
}

func TestSTLocalSequencePruning(t *testing.T) {
	// A region bursts then goes persistently sub-baseline: its sequence
	// total must go negative and the sequence must be dropped, while the
	// burst window survives.
	pts := line(2)
	m := NewSTLocal(pts, STLocalOptions{})
	obsAt := func(i int) []float64 {
		switch {
		case i < 3:
			return []float64{5, 5} // establish baseline
		case i < 5:
			return []float64{30, 30} // burst
		default:
			return []float64{0, 0} // collapse far below baseline
		}
	}
	for i := 0; i < 30; i++ {
		if err := m.Push(obsAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if open := m.Open(); open != 0 {
		t.Fatalf("%d sequences still open after collapse, want 0", open)
	}
	ws := m.Windows()
	if len(ws) == 0 {
		t.Fatal("burst window lost by pruning")
	}
	best, _ := BestWindow(ws)
	if best.Start > 4 || best.End < 3 {
		t.Fatalf("window [%d,%d] should cover the burst [3,4]", best.Start, best.End)
	}
}

// Pruning safety: dropping a sequence when its total goes negative never
// loses a maximal window. Compare against an oracle miner that never
// prunes (KeepDominated to disable cross-filtering as well).
func TestSTLocalPruningLosesNoWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(4)
		L := 25
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		}
		surface := make([][]float64, n)
		for x := range surface {
			surface[x] = make([]float64, L)
			for i := range surface[x] {
				surface[x][i] = float64(rng.Intn(4))
				if rng.Intn(8) == 0 {
					surface[x][i] += float64(10 + rng.Intn(20))
				}
			}
		}
		pruned := NewSTLocal(pts, STLocalOptions{KeepDominated: true})
		pushSurface(t, pruned, surface)

		oracle := newNoPruneOracle(pts)
		oracle.run(surface)

		got := pruned.Windows()
		// Every window the pruned miner reports must be found by the
		// oracle with the same score, and the oracle's best must equal
		// the pruned miner's best: pruning only removes sequences whose
		// suffix cannot start a maximal segment.
		gb, okG := BestWindow(got)
		ob, okO := BestWindow(oracle.windows)
		if okG != okO {
			t.Fatalf("iter %d: best existence mismatch %v vs %v", iter, okG, okO)
		}
		if okG && math.Abs(gb.Score-ob.Score) > 1e-9 {
			t.Fatalf("iter %d: best scores differ: pruned %v oracle %v", iter, gb.Score, ob.Score)
		}
	}
}

// noPruneOracle replays STLocal's bookkeeping without the total<0 pruning
// rule, keeping every sequence alive to the end of the stream.
type noPruneOracle struct {
	pts     []geo.Point
	windows []Window
}

func newNoPruneOracle(pts []geo.Point) *noPruneOracle {
	return &noPruneOracle{pts: pts}
}

func (o *noPruneOracle) run(surface [][]float64) {
	n := len(o.pts)
	L := len(surface[0])
	baselines := make([]expect.Baseline, n)
	factory := expect.NewRunningMean()
	for i := range baselines {
		baselines[i] = factory()
	}
	type seq struct {
		streams []int
		rect    geo.Rect
		start   int
		scores  []float64
	}
	seqs := map[string]*seq{}
	weights := make([]float64, n)
	for i := 0; i < L; i++ {
		for x := 0; x < n; x++ {
			weights[x] = surface[x][i] - baselines[x].Next(surface[x][i])
		}
		for _, r := range RBursty(weights, ExactFinder()(o.pts)) {
			key := streamsKey(r.Streams)
			if _, ok := seqs[key]; !ok {
				seqs[key] = &seq{streams: r.Streams, rect: r.Rect, start: i}
			}
		}
		for _, sq := range seqs {
			var score float64
			for _, x := range sq.streams {
				score += weights[x]
			}
			sq.scores = append(sq.scores, score)
		}
	}
	for _, sq := range seqs {
		var rt maxseqRT
		for _, s := range sq.scores {
			rt.add(s)
		}
		for _, seg := range rt.maximals() {
			o.windows = append(o.windows, Window{
				Rect:    sq.rect,
				Streams: sq.streams,
				Start:   sq.start + seg[0],
				End:     sq.start + seg[1] - 1,
				Score:   seg2score(sq.scores, seg),
			})
		}
	}
}

// maxseqRT is a tiny independent maximal-segments implementation (simple
// quadratic scan) so the oracle does not share code with the system under
// test.
type maxseqRT struct{ scores []float64 }

func (r *maxseqRT) add(s float64) { r.scores = append(r.scores, s) }

func (r *maxseqRT) maximals() [][2]int {
	n := len(r.scores)
	cum := make([]float64, n+1)
	for i, s := range r.scores {
		cum[i+1] = cum[i] + s
	}
	var segs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j <= n; j++ {
			okLeft := true
			for k := i + 1; k < j; k++ {
				if cum[k] <= cum[i] {
					okLeft = false
					break
				}
			}
			okRight := true
			for k := i + 1; k < j; k++ {
				if cum[k] >= cum[j] {
					okRight = false
					break
				}
			}
			if okLeft && okRight && cum[j] > cum[i] {
				segs = append(segs, [2]int{i, j})
			}
		}
	}
	var out [][2]int
	for _, s := range segs {
		contained := false
		for _, tseg := range segs {
			if tseg != s && tseg[0] <= s[0] && s[1] <= tseg[1] {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, s)
		}
	}
	return out
}

func seg2score(scores []float64, seg [2]int) float64 {
	var sum float64
	for i := seg[0]; i < seg[1]; i++ {
		sum += scores[i]
	}
	return sum
}

func TestSTLocalInstrumentation(t *testing.T) {
	pts := line(3)
	m := NewSTLocal(pts, STLocalOptions{})
	var open []int
	for _, obs := range [][]float64{{1, 1, 1}, {9, 1, 1}} {
		if err := m.Push(obs); err != nil {
			t.Fatal(err)
		}
		open = append(open, m.Open())
	}
	if m.Timestamps() != 2 {
		t.Fatalf("Timestamps = %d, want 2", m.Timestamps())
	}
	if m.TotalRectCount() != 1 {
		t.Fatalf("TotalRectCount = %d, want 1", m.TotalRectCount())
	}
	if open[0] != 0 || open[1] != 1 {
		t.Fatalf("Open after each Push = %v, want [0 1]", open)
	}
	if m.CreatedSequences() != 1 {
		t.Fatalf("CreatedSequences = %d, want 1", m.CreatedSequences())
	}
}

func TestSTLocalWindowScoreEqualsWScore(t *testing.T) {
	// The reported w-score must equal Σ_i r-score(R, i, t) over the
	// window's timeframe (Eq. 9), reconstructed independently here.
	pts := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	surface := [][]float64{
		{2, 2, 2, 12, 14, 2, 2, 2, 2, 2},
		{2, 2, 2, 11, 13, 2, 2, 2, 2, 2},
	}
	m := NewSTLocal(pts, STLocalOptions{})
	pushSurface(t, m, surface)
	ws := m.Windows()
	if len(ws) == 0 {
		t.Fatal("no windows")
	}
	best, _ := BestWindow(ws)
	// Reconstruct weights with an independent running mean.
	var want float64
	for _, x := range best.Streams {
		sum, cnt := 0.0, 0
		for i := 0; i < len(surface[x]); i++ {
			var exp float64
			if cnt == 0 {
				exp = surface[x][i]
			} else {
				exp = sum / float64(cnt)
			}
			if i >= best.Start && i <= best.End {
				want += surface[x][i] - exp
			}
			sum += surface[x][i]
			cnt++
		}
	}
	if math.Abs(best.Score-want) > 1e-9 {
		t.Fatalf("w-score %v, want %v", best.Score, want)
	}
}

func TestSTLocalGridMode(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	pts := []geo.Point{{X: 10, Y: 10}, {X: 12, Y: 12}, {X: 90, Y: 90}}
	m := NewSTLocal(pts, STLocalOptions{Finder: GridFinder(bounds, 10)})
	for i := 0; i < 10; i++ {
		obs := []float64{1, 1, 1}
		if i >= 4 && i <= 6 {
			obs[0], obs[1] = 10, 12
		}
		if err := m.Push(obs); err != nil {
			t.Fatal(err)
		}
	}
	ws := m.Windows()
	if len(ws) == 0 {
		t.Fatal("grid mode found no windows")
	}
	best, _ := BestWindow(ws)
	if !best.ContainsStream(0) || !best.ContainsStream(1) || best.ContainsStream(2) {
		t.Fatalf("grid-mode best window %+v", best)
	}
}

func TestMineLocalMatchesStreaming(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}
	surface := [][]float64{
		{1, 1, 8, 9, 1, 1},
		{1, 1, 7, 8, 1, 1},
	}
	batch, err := MineLocal(surface, pts, STLocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewSTLocal(pts, STLocalOptions{})
	pushSurface(t, m, surface)
	streamed := m.Windows()
	if len(batch) != len(streamed) {
		t.Fatalf("batch %d windows, streaming %d", len(batch), len(streamed))
	}
	for i := range batch {
		if batch[i].Start != streamed[i].Start || batch[i].End != streamed[i].End ||
			math.Abs(batch[i].Score-streamed[i].Score) > 1e-12 {
			t.Fatalf("window %d differs: %+v vs %+v", i, batch[i], streamed[i])
		}
	}
}

func TestMineLocalValidation(t *testing.T) {
	if _, err := MineLocal([][]float64{{1}}, line(2), STLocalOptions{}); err == nil {
		t.Fatal("mismatched surface should error")
	}
	ws, err := MineLocal(nil, nil, STLocalOptions{})
	if err != nil || ws != nil {
		t.Fatalf("empty mine: %v, %v", ws, err)
	}
}

func TestWindowOverlapsAndSubWindow(t *testing.T) {
	w := Window{
		Rect:    geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
		Streams: []int{2, 5},
		Start:   3, End: 8,
	}
	if !w.Overlaps(5, 3) || w.Overlaps(5, 9) || w.Overlaps(1, 4) {
		t.Fatal("Overlaps misbehaves")
	}
	super := Window{
		Rect:  geo.Rect{MinX: -1, MinY: -1, MaxX: 11, MaxY: 11},
		Start: 2, End: 9,
	}
	if !w.SubWindowOf(super) {
		t.Fatal("w should be a sub-window of super")
	}
	if super.SubWindowOf(w) {
		t.Fatal("super is not a sub-window of w")
	}
}

func TestFilterMaximal(t *testing.T) {
	small := Window{Rect: geo.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, Start: 5, End: 6, Score: 1}
	big := Window{Rect: geo.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3}, Start: 4, End: 8, Score: 3}
	other := Window{Rect: geo.Rect{MinX: 50, MinY: 50, MaxX: 60, MaxY: 60}, Start: 0, End: 2, Score: 0.5}
	got := FilterMaximal([]Window{small, big, other})
	if len(got) != 2 {
		t.Fatalf("got %d windows, want 2 (small dominated): %+v", len(got), got)
	}
	if got[0].Score != 3 || got[1].Score != 0.5 {
		t.Fatalf("sorted scores wrong: %+v", got)
	}
	// Equal scores do not dominate.
	twin := small
	twin.Score = 1
	got = FilterMaximal([]Window{small, twin})
	if len(got) != 2 {
		t.Fatalf("equal-score windows should both survive, got %+v", got)
	}
}

func TestBestWindowEmpty(t *testing.T) {
	if _, ok := BestWindow(nil); ok {
		t.Fatal("BestWindow(nil) should report false")
	}
}

func TestSTLocalDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	n, L := 6, 30
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	surface := make([][]float64, n)
	for x := range surface {
		surface[x] = make([]float64, L)
		for i := range surface[x] {
			surface[x][i] = float64(rng.Intn(20))
		}
	}
	a, err := MineLocal(surface, pts, STLocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MineLocal(surface, pts, STLocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic window count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End || a[i].Score != b[i].Score {
			t.Fatalf("non-deterministic window %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func BenchmarkSTLocalPush181(b *testing.B) {
	rng := rand.New(rand.NewSource(73))
	pts := make([]geo.Point, 181)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	m := NewSTLocal(pts, STLocalOptions{})
	obs := make([]float64, 181)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := range obs {
			obs[x] = rng.ExpFloat64()
		}
		if err := m.Push(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineLocalHeavyTerm mines "w0000", the term STLocal spends the
// most time on in the generated Topix corpus the benchmark calls xs (181
// streams, 48 weeks).
func BenchmarkMineLocalHeavyTerm(b *testing.B) {
	tp, err := gen.NewTopix(gen.TopixConfig{Seed: 1, WeeklyArticles: 0.2, Vocab: 150, TokensPerArticle: 8})
	if err != nil {
		b.Fatal(err)
	}
	term, ok := tp.Col.Dict().Lookup("w0000")
	if !ok {
		b.Fatal("the xs corpus has no term w0000")
	}
	surface, points := tp.Col.Surface(term), tp.Col.Points()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineLocal(surface, points, STLocalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
