// Package exp implements the paper's experimental evaluation (§6): one
// function per table and figure, shared by cmd/stbench and the top-level
// benchmark suite. Every experiment is seeded and deterministic; scale
// knobs default to laptop-friendly sizes with the paper's full-scale
// parameters available behind options. EXPERIMENTS.md records the
// paper-reported versus measured values for each experiment.
package exp

import (
	"context"
	"fmt"
	"strings"

	"stburst/internal/burst"
	"stburst/internal/core"
	"stburst/internal/gen"
	"stburst/internal/search"
	"stburst/internal/stream"
)

// Lab bundles one generated Topix-like corpus with the pattern sets mined
// from it by the three systems, so the real-data experiments (Tables 1
// and 3, Figures 4–7) can share the expensive mining passes.
type Lab struct {
	TP       *gen.Topix
	Windows  map[int][]core.Window      // STLocal regional patterns per term
	Combs    map[int][]core.CombPattern // STComb combinatorial patterns per term
	Temporal map[int][]burst.Interval   // TB temporal bursts per term (merged stream)
	workers  int                        // worker count for per-term experiment replays
}

// NewLabPar generates the corpus and mines all three pattern sets,
// fanning the vocabulary out across workers (<1 means one per CPU, 1 is
// fully sequential). Mining output is bit-identical to the sequential
// path for every worker count.
func NewLabPar(cfg gen.TopixConfig, workers int) (*Lab, error) {
	tp, err := gen.NewTopix(cfg)
	if err != nil {
		return nil, err
	}
	// STComb's per-stream detector requires a minimal series mass: a
	// stream that mentioned the term once or twice has no burst
	// structure to contribute (see burst.Discrepancy.MinMass).
	combDet := burst.Discrepancy{MinMass: 3}
	windows, combs, temporal, err := search.MineAllKindsParCtx(context.Background(), tp.Col,
		core.STLocalOptions{}, core.STCombOptions{Detector: combDet}, nil, workers)
	if err != nil {
		return nil, err
	}
	return &Lab{TP: tp, Windows: windows, Combs: combs, Temporal: temporal, workers: workers}, nil
}

// Workers returns the lab's mining worker count, reused by the
// experiments that replay per-term mining (Fig. 5/6).
func (l *Lab) Workers() int { return l.workers }

// Col returns the lab's collection.
func (l *Lab) Col() *stream.Collection { return l.TP.Col }

// bestWindowForQuery returns the highest-scoring STLocal window across
// the query's terms.
func (l *Lab) bestWindowForQuery(terms []int) (core.Window, bool) {
	var best core.Window
	found := false
	for _, t := range terms {
		if w, ok := core.BestWindow(l.Windows[t]); ok {
			if !found || w.Score > best.Score {
				best = w
				found = true
			}
		}
	}
	return best, found
}

// bestCombForQuery returns the highest-scoring STComb pattern across the
// query's terms.
func (l *Lab) bestCombForQuery(terms []int) (core.CombPattern, bool) {
	var best core.CombPattern
	found := false
	for _, t := range terms {
		for _, p := range l.Combs[t] {
			if !found || p.Score > best.Score {
				best = p
				found = true
			}
		}
	}
	return best, found
}

// queryString joins an event's query terms for display.
func queryString(ev gen.Event) string { return strings.Join(ev.Query, " ") }

// formatTable renders rows of cells as an aligned text table.
func formatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
