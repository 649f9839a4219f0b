package expect

// Baseline predicts the expected next frequency of one series (a single
// term in a single stream). Implementations are stateful: Next first
// returns the expectation for the incoming observation using only earlier
// observations, then folds the observation into the model.
type Baseline interface {
	// Next returns the expected frequency for this observation and then
	// absorbs the observed value into the model state.
	Next(observed float64) (expected float64)
}

// Factory creates one Baseline instance per (stream, term) series.
//
// Baseline instances are stateful and must never be shared across
// goroutines; factories exist so concurrent miners can each materialize
// private instances. A Factory itself must be safe to call concurrently
// (every constructor in this package returns one that is: the closures
// capture only immutable configuration).
type Factory func() Baseline

// RunningMean predicts the mean of all previous observations — the
// paper's default choice ("the average observed frequency of t in D_x,
// taken over all the snapshots collected before timestamp i"). The first
// observation, which has no history, is predicted perfectly (weight 0) so
// that the opening timestamp is never spuriously bursty.
type RunningMean struct {
	sum float64
	n   int
}

// NewRunningMean returns a Factory producing RunningMean baselines.
func NewRunningMean() Factory {
	return func() Baseline { return &RunningMean{} }
}

// Next implements Baseline.
func (m *RunningMean) Next(observed float64) float64 {
	var expected float64
	if m.n == 0 {
		expected = observed
	} else {
		expected = m.sum / float64(m.n)
	}
	m.sum += observed
	m.n++
	return expected
}

// WindowMean predicts the mean of the most recent K observations ("one can
// focus only on the most recent measurements").
type WindowMean struct {
	k    int
	buf  []float64
	head int
	size int
	sum  float64
}

// NewWindowMean returns a Factory producing WindowMean baselines over the
// last k observations. k must be positive.
func NewWindowMean(k int) Factory {
	if k < 1 {
		panic("expect: WindowMean requires k >= 1")
	}
	return func() Baseline { return &WindowMean{k: k, buf: make([]float64, k)} }
}

// Next implements Baseline.
func (m *WindowMean) Next(observed float64) float64 {
	var expected float64
	if m.size == 0 {
		expected = observed
	} else {
		expected = m.sum / float64(m.size)
	}
	if m.size == m.k {
		m.sum -= m.buf[m.head]
	} else {
		m.size++
	}
	m.buf[m.head] = observed
	m.sum += observed
	m.head = (m.head + 1) % m.k
	return expected
}

// EWMA predicts an exponentially weighted moving average with smoothing
// factor alpha in (0, 1]: heavier alpha tracks recent activity faster.
type EWMA struct {
	alpha float64
	val   float64
	init  bool
}

// NewEWMA returns a Factory producing EWMA baselines.
func NewEWMA(alpha float64) Factory {
	if alpha <= 0 || alpha > 1 {
		panic("expect: EWMA requires alpha in (0,1]")
	}
	return func() Baseline { return &EWMA{alpha: alpha} }
}

// Next implements Baseline.
func (m *EWMA) Next(observed float64) float64 {
	if !m.init {
		m.val = observed
		m.init = true
		return observed
	}
	expected := m.val
	m.val = m.alpha*observed + (1-m.alpha)*m.val
	return expected
}

// Seasonal predicts the mean of observations exactly one or more whole
// periods earlier (the paper's example: the expected frequency of a term
// in San Francisco news on Dec-25-09 is its average on Decembers of
// previous years). When no prior-period observation exists yet it falls
// back to a running mean.
type Seasonal struct {
	period   int
	history  []float64
	fallback RunningMean
}

// NewSeasonal returns a Factory producing Seasonal baselines with the
// given period (in timestamps). period must be positive.
func NewSeasonal(period int) Factory {
	if period < 1 {
		panic("expect: Seasonal requires period >= 1")
	}
	return func() Baseline { return &Seasonal{period: period} }
}

// Next implements Baseline.
func (m *Seasonal) Next(observed float64) float64 {
	i := len(m.history)
	var sum float64
	var n int
	for j := i - m.period; j >= 0; j -= m.period {
		sum += m.history[j]
		n++
	}
	var expected float64
	if n > 0 {
		expected = sum / float64(n)
		m.fallback.Next(observed) // keep fallback state warm
	} else {
		expected = m.fallback.Next(observed)
	}
	m.history = append(m.history, observed)
	return expected
}

// WeightSurface converts a frequency surface (streams × timeline) into the
// burstiness-weight surface B(t, D_x[i]) = observed − expected of Eq. 7,
// instantiating one baseline per stream.
func WeightSurface(surface [][]float64, f Factory) [][]float64 {
	out := make([][]float64, len(surface))
	for x, series := range surface {
		b := f()
		row := make([]float64, len(series))
		for i, obs := range series {
			row[i] = obs - b.Next(obs)
		}
		out[x] = row
	}
	return out
}
