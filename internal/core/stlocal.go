package core

import (
	"fmt"
	"strconv"
	"strings"

	"stburst/internal/expect"
	"stburst/internal/geo"
	"stburst/internal/maxseq"
)

// STLocalOptions configures the STLocal miner.
//
// Concurrency: an options value may be shared by any number of concurrent
// miners. Baseline is a factory precisely so that no baseline *instance*
// is ever shared — every NewSTLocal call creates its own per-stream
// instances — and Finder implementations must be stateless per call (both
// provided finders are). Individual STLocal instances are NOT safe for
// concurrent use; create one per goroutine (MineLocal does).
type STLocalOptions struct {
	// Baseline supplies the expected-frequency model E_x[i][t] of Eq. 7.
	// nil uses the paper's default, the running mean over all earlier
	// snapshots.
	Baseline expect.Factory
	// Finder locates the maximum r-score rectangle per R-Bursty
	// iteration. nil uses the exact finder.
	Finder RectFinder
	// KeepDominated, when set, makes Windows return every per-region
	// maximal segment without the cross-region maximality filter of
	// Definition 2.
	KeepDominated bool
}

// sequence tracks one bursty region: the per-timestamp r-scores of a
// fixed stream set, fed into an online Ruzzo–Tompa instance whose maximal
// segments are the region's maximal windows.
type sequence struct {
	key     string // streamsKey of the region, for map removal
	streams []int  // ascending stream indices defining the region
	rect    geo.Rect
	start   int // timestamp at which tracking began
	rt      maxseq.RuzzoTompa
}

// STLocal is the online regional pattern miner of §4 (Algorithm 2) for a
// single term. Feed it one snapshot of per-stream frequencies per
// timestamp with Push; at any point Windows returns the maximal
// spatiotemporal windows found so far.
type STLocal struct {
	opts      STLocalOptions
	points    []geo.Point
	baselines []expect.Baseline
	weights   []float64
	finder    RectFinder

	// seqs answers "is this region already tracked?"; order holds the
	// same open sequences in creation order. Every loop that can reach
	// the output must walk order, never the map: map iteration order is
	// randomized, and with it the order equal-scoring windows would
	// reach the (unstable) final sort — output must be byte-identical
	// across runs and processes for the snapshot/serving pipeline.
	seqs  map[string]*sequence
	order []*sequence
	done  []Window
	now   int

	totalRects  int   // rectangles reported across all snapshots
	openHistory []int // open sequences after each snapshot (Fig. 6)
	created     int   // sequences ever created
}

// NewSTLocal creates a miner over streams fixed at the given locations.
func NewSTLocal(points []geo.Point, opts STLocalOptions) *STLocal {
	factory := opts.Baseline
	if factory == nil {
		factory = expect.NewRunningMean()
	}
	finder := opts.Finder
	if finder == nil {
		finder = ExactFinder()
	}
	baselines := make([]expect.Baseline, len(points))
	for i := range baselines {
		baselines[i] = factory()
	}
	return &STLocal{
		opts:      opts,
		points:    points,
		baselines: baselines,
		weights:   make([]float64, len(points)),
		finder:    finder,
		seqs:      make(map[string]*sequence),
	}
}

// Push processes one snapshot: observed[x] is the term's frequency in
// stream x at the next timestamp (D_x[i][t], Eq. 6).
func (s *STLocal) Push(observed []float64) error {
	if len(observed) != len(s.points) {
		return fmt.Errorf("core: snapshot has %d streams, want %d", len(observed), len(s.points))
	}
	// Line 9 precursor: burstiness weights B(t, D_x[i]) = obs − expected.
	for x, obs := range observed {
		s.weights[x] = obs - s.baselines[x].Next(obs)
	}
	// Line 6: find this snapshot's bursty rectangles.
	rects := RBursty(s.points, s.weights, s.finder)
	s.totalRects += len(rects)
	// Line 7: open a sequence for every newly seen region.
	for _, r := range rects {
		key := streamsKey(r.Streams)
		if _, ok := s.seqs[key]; ok {
			continue
		}
		seq := &sequence{key: key, streams: r.Streams, rect: r.Rect, start: s.now}
		s.seqs[key] = seq
		s.order = append(s.order, seq)
		s.created++
	}
	// Lines 8–12: append the region's current r-score to every open
	// sequence; retire sequences whose running total went negative (no
	// maximal segment can have a suffix of such a sequence as a prefix).
	// Iterate in creation order so retiring sequences finalize their
	// windows deterministically.
	live := s.order[:0]
	for _, seq := range s.order {
		var score float64
		for _, x := range seq.streams {
			score += s.weights[x]
		}
		seq.rt.Add(score)
		if seq.rt.Total() < 0 {
			s.finalize(seq)
			delete(s.seqs, seq.key)
		} else {
			live = append(live, seq)
		}
	}
	for i := len(live); i < len(s.order); i++ {
		s.order[i] = nil // release retired sequences
	}
	s.order = live
	s.now++
	s.openHistory = append(s.openHistory, len(s.seqs))
	return nil
}

// finalize converts a retiring sequence's maximal segments into windows.
func (s *STLocal) finalize(seq *sequence) {
	for _, seg := range seq.rt.Maximals() {
		s.done = append(s.done, Window{
			Rect:    seq.rect,
			Streams: seq.streams,
			Start:   seq.start + seg.Start,
			End:     seq.start + seg.End - 1,
			Score:   seg.Score,
		})
	}
}

// Windows returns the maximal spatiotemporal windows W_t accumulated so
// far: segments of retired sequences plus the current maximal segments of
// every open sequence. Unless KeepDominated was set, windows strictly
// dominated by a super-window (Definition 2) are dropped. The result is
// sorted by descending score.
func (s *STLocal) Windows() []Window {
	out := make([]Window, len(s.done))
	copy(out, s.done)
	for _, seq := range s.order {
		for _, seg := range seq.rt.Maximals() {
			out = append(out, Window{
				Rect:    seq.rect,
				Streams: seq.streams,
				Start:   seq.start + seg.Start,
				End:     seq.start + seg.End - 1,
				Score:   seg.Score,
			})
		}
	}
	if s.opts.KeepDominated {
		SortWindows(out)
		return out
	}
	return FilterMaximal(out)
}

// Timestamps returns the number of snapshots processed so far.
func (s *STLocal) Timestamps() int { return s.now }

// TotalRectCount returns the number of bursty rectangles reported across
// all snapshots so far.
func (s *STLocal) TotalRectCount() int { return s.totalRects }

// OpenHistory returns, per processed timestamp, the number of open
// sequences after that snapshot.
func (s *STLocal) OpenHistory() []int {
	out := make([]int, len(s.openHistory))
	copy(out, s.openHistory)
	return out
}

// CreatedSequences returns the number of sequences ever opened, whose
// worst case is n·|L| (Appendix A).
func (s *STLocal) CreatedSequences() int { return s.created }

// streamsKey encodes an ascending stream-index list as a map key.
func streamsKey(streams []int) string {
	var b strings.Builder
	for i, x := range streams {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// MineLocal runs STLocal over a whole frequency surface (streams ×
// timeline) and returns its maximal windows. It is the batch convenience
// wrapper over the streaming API.
func MineLocal(surface [][]float64, points []geo.Point, opts STLocalOptions) ([]Window, error) {
	if len(surface) != len(points) {
		return nil, fmt.Errorf("core: surface has %d streams, want %d", len(surface), len(points))
	}
	m := NewSTLocal(points, opts)
	if len(surface) == 0 {
		return nil, nil
	}
	obs := make([]float64, len(points))
	for i := 0; i < len(surface[0]); i++ {
		for x := range surface {
			obs[x] = surface[x][i]
		}
		if err := m.Push(obs); err != nil {
			return nil, err
		}
	}
	return m.Windows(), nil
}
