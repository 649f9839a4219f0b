package gen

import (
	"math"
	"math/rand"
	"testing"
)

func TestWeibullPDFBasics(t *testing.T) {
	if got := WeibullPDF(-1, 2, 2); got != 0 {
		t.Fatalf("negative x: %v", got)
	}
	// k=1 reduces to the exponential density 1/c·e^{-x/c}.
	if got, want := WeibullPDF(0, 2, 1), 0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("exp at 0: got %v want %v", got, want)
	}
	if got, want := WeibullPDF(2, 2, 1), math.Exp(-1)/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("exp at 2: got %v want %v", got, want)
	}
	// Density integrates to ~1 (trapezoid over a wide range).
	for _, kk := range []float64{1, 1.5, 2, 3, 5} {
		sum := 0.0
		dx := 0.001
		for x := 0.0; x < 30; x += dx {
			sum += WeibullPDF(x+dx/2, 3, kk) * dx
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Fatalf("k=%v: density integrates to %v", kk, sum)
		}
	}
}

func TestWeibullEnvelopePeaksAtP(t *testing.T) {
	env := WeibullEnvelope(20, 8, 2.5, 42)
	if len(env) != 20 {
		t.Fatalf("len %d", len(env))
	}
	maxVal := 0.0
	for _, v := range env {
		if v < 0 {
			t.Fatalf("negative envelope value %v", v)
		}
		if v > maxVal {
			maxVal = v
		}
	}
	if math.Abs(maxVal-42) > 1e-9 {
		t.Fatalf("peak %v, want 42", maxVal)
	}
	if got := WeibullEnvelope(0, 8, 2, 1); got != nil {
		t.Fatalf("n=0: got %v", got)
	}
}

func TestHashDeterminismAndSpread(t *testing.T) {
	a := hash4(1, 2, 3, 4)
	if a != hash4(1, 2, 3, 4) {
		t.Fatal("hash not deterministic")
	}
	if a == hash4(1, 2, 3, 5) || a == hash4(2, 2, 3, 4) {
		t.Fatal("hash collisions on adjacent inputs")
	}
	// uniform01 stays in [0,1) and has a plausible mean.
	sum := 0.0
	n := 10000
	for i := 0; i < n; i++ {
		u := uniform01(mix64(uint64(i)))
		if u < 0 || u >= 1 {
			t.Fatalf("uniform01 out of range: %v", u)
		}
		sum += u
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("uniform01 mean = %v", mean)
	}
}

func TestExpFromHashMean(t *testing.T) {
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += expFromHash(mix64(uint64(i)+977), 3)
	}
	if mean := sum / float64(n); math.Abs(mean-3) > 0.12 {
		t.Fatalf("exponential mean = %v, want ~3", mean)
	}
}

func TestSynthDeterminism(t *testing.T) {
	cfg := SynthConfig{Streams: 40, Timeline: 60, Terms: 50, Patterns: 10, Seed: 5}
	a := NewSynth(cfg)
	b := NewSynth(cfg)
	if len(a.Patterns()) != len(b.Patterns()) {
		t.Fatal("pattern counts differ")
	}
	for i := 0; i < 100; i++ {
		term, x, ts := i%50, (i*7)%40, (i*13)%60
		if a.At(term, x, ts) != b.At(term, x, ts) {
			t.Fatalf("At(%d,%d,%d) differs", term, x, ts)
		}
	}
}

func TestSynthPatternsWithinBounds(t *testing.T) {
	cfg := SynthConfig{Streams: 60, Timeline: 100, Terms: 200, Patterns: 50, Seed: 6}
	s := NewSynth(cfg)
	if len(s.Patterns()) != 50 {
		t.Fatalf("got %d patterns, want 50", len(s.Patterns()))
	}
	for _, p := range s.Patterns() {
		if p.Term < 0 || p.Term >= 200 {
			t.Fatalf("term out of range: %+v", p)
		}
		if p.Start < 0 || p.End >= 100 || p.Start > p.End {
			t.Fatalf("timeframe out of range: %+v", p)
		}
		if len(p.Streams) < s.Config().MinStreams || len(p.Streams) > s.Config().MaxStreams {
			t.Fatalf("stream count out of bounds: %+v (cfg %+v)", p, s.Config())
		}
		for i, x := range p.Streams {
			if x < 0 || x >= 60 {
				t.Fatalf("stream out of range: %+v", p)
			}
			if i > 0 && p.Streams[i-1] >= x {
				t.Fatalf("streams not strictly ascending: %+v", p)
			}
		}
	}
}

func TestSynthInjectedLiftVisible(t *testing.T) {
	cfg := SynthConfig{Streams: 30, Timeline: 80, Terms: 20, Patterns: 8, Seed: 7}
	s := NewSynth(cfg)
	for _, p := range s.Patterns() {
		// Average frequency inside the pattern (member streams) must
		// clearly exceed the background mean.
		var inside float64
		var n int
		for _, x := range p.Streams {
			for i := p.Start; i <= p.End; i++ {
				inside += s.At(p.Term, x, i)
				n++
			}
		}
		inside /= float64(n)
		if inside < 2*cfg.MeanFreq {
			// The envelope has low tails, but the average should still
			// be well above the background mean of 1.
			t.Fatalf("pattern %+v: inside mean %v too close to background", p, inside)
		}
	}
}

func TestSynthDistGenIsLocal(t *testing.T) {
	// distGen patterns must be spatially tighter than randGen patterns.
	span := func(mode Mode) float64 {
		s := NewSynth(SynthConfig{Streams: 300, Timeline: 50, Terms: 500, Patterns: 60, Seed: 8, Mode: mode})
		var total float64
		var n int
		for _, p := range s.Patterns() {
			for i := 1; i < len(p.Streams); i++ {
				// mean pairwise distance to the first member
				d := distOf(s, p.Streams[0], p.Streams[i])
				total += d
				n++
			}
		}
		return total / float64(n)
	}
	d := span(DistGen)
	r := span(RandGen)
	if d >= r*0.6 {
		t.Fatalf("distGen mean spread %v not clearly below randGen %v", d, r)
	}
}

func distOf(s *Synth, a, b int) float64 {
	pa, pb := s.Points()[a], s.Points()[b]
	dx, dy := pa.X-pb.X, pa.Y-pb.Y
	return math.Sqrt(dx*dx + dy*dy)
}

func TestSynthSeriesSurfaceSnapshotAgree(t *testing.T) {
	s := NewSynth(SynthConfig{Streams: 10, Timeline: 20, Terms: 5, Patterns: 3, Seed: 9})
	surface := s.Surface(2)
	for x := 0; x < 10; x++ {
		series := s.Series(2, x)
		for i := 0; i < 20; i++ {
			if surface[x][i] != series[i] || series[i] != s.At(2, x, i) {
				t.Fatalf("access paths disagree at (%d,%d)", x, i)
			}
		}
	}
	snap := s.Snapshot(2, 7, nil)
	for x := 0; x < 10; x++ {
		if snap[x] != surface[x][7] {
			t.Fatalf("snapshot disagrees at stream %d", x)
		}
	}
}

func TestSynthPatternTermsAndLookup(t *testing.T) {
	s := NewSynth(SynthConfig{Streams: 20, Timeline: 30, Terms: 10, Patterns: 12, Seed: 10})
	terms := s.PatternTerms()
	if len(terms) == 0 {
		t.Fatal("no pattern terms")
	}
	count := 0
	for _, term := range terms {
		ps := s.PatternsForTerm(term)
		if len(ps) == 0 {
			t.Fatalf("term %d listed but has no patterns", term)
		}
		count += len(ps)
		for _, p := range ps {
			if p.Term != term {
				t.Fatalf("pattern term mismatch: %+v for term %d", p, term)
			}
		}
	}
	if count != 12 {
		t.Fatalf("pattern total %d, want 12", count)
	}
}

func TestCountriesWorld(t *testing.T) {
	if len(Countries) != 181 {
		t.Fatalf("world has %d countries, want 181 (the paper's count)", len(Countries))
	}
	seen := map[string]bool{}
	for _, c := range Countries {
		if seen[c.Name] {
			t.Fatalf("duplicate country %q", c.Name)
		}
		seen[c.Name] = true
		if c.Geo.Lat < -90 || c.Geo.Lat > 90 || c.Geo.Lon < -180 || c.Geo.Lon > 180 {
			t.Fatalf("bad coordinates for %q: %+v", c.Name, c.Geo)
		}
	}
	if CountryIndex("Peru") < 0 || CountryIndex("Atlantis") != -1 {
		t.Fatal("CountryIndex misbehaves")
	}
}

func TestEventsTable(t *testing.T) {
	if len(Events) != 18 {
		t.Fatalf("got %d events, want 18 (Table 9)", len(Events))
	}
	for i, ev := range Events {
		if ev.ID != i+1 {
			t.Fatalf("event IDs must be 1..18 in order, got %d at %d", ev.ID, i)
		}
		if len(ev.Query) == 0 || len(ev.Episodes) == 0 {
			t.Fatalf("event %d incomplete: %+v", ev.ID, ev)
		}
		switch {
		case ev.ID <= 6 && ev.Tier != TierGlobal:
			t.Fatalf("event %d should be global", ev.ID)
		case ev.ID > 6 && ev.ID <= 12 && ev.Tier != TierMajor:
			t.Fatalf("event %d should be major", ev.ID)
		case ev.ID > 12 && ev.Tier != TierLocal:
			t.Fatalf("event %d should be local", ev.ID)
		}
		for _, ep := range ev.Episodes {
			if CountryIndex(ep.Epicenter) < 0 {
				t.Fatalf("event %d: unknown epicenter %q", ev.ID, ep.Epicenter)
			}
			if ep.Start < 0 || ep.Start+ep.Length > Weeks {
				t.Fatalf("event %d: episode exceeds timeline: %+v", ev.ID, ep)
			}
		}
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("non-positive mean should give 0")
	}
	for _, mean := range []float64{0.5, 3, 12, 80} {
		sum := 0.0
		n := 20000
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, mean))
		}
		got := sum / float64(n)
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestNewTopixSmall(t *testing.T) {
	tp, err := NewTopix(TopixConfig{Seed: 1, WeeklyArticles: 2, Vocab: 300})
	if err != nil {
		t.Fatal(err)
	}
	col := tp.Col
	if col.NumStreams() != 181 {
		t.Fatalf("streams = %d, want 181", col.NumStreams())
	}
	if col.Length() != Weeks {
		t.Fatalf("timeline = %d, want %d", col.Length(), Weeks)
	}
	if col.NumDocs() == 0 {
		t.Fatal("no documents generated")
	}
	if len(tp.Labels) != col.NumDocs() {
		t.Fatalf("labels %d, docs %d", len(tp.Labels), col.NumDocs())
	}
	// Every event must have produced at least one labeled document and
	// have its query terms in the dictionary.
	for _, ev := range Events {
		if len(tp.Relevant(ev.ID)) == 0 {
			t.Fatalf("event %d produced no documents", ev.ID)
		}
		ids := tp.QueryTerms[ev.ID]
		if len(ids) != len(ev.Query) {
			t.Fatalf("event %d query terms: %v", ev.ID, ids)
		}
	}
}

func TestTopixEventLocality(t *testing.T) {
	tp, err := NewTopix(TopixConfig{Seed: 2, WeeklyArticles: 2, Vocab: 300})
	if err != nil {
		t.Fatal(err)
	}
	// A local event's documents must be concentrated near its epicenter;
	// a global event's must not.
	spread := func(eventID int) int {
		countries := map[int]bool{}
		for doc := range tp.Relevant(eventID) {
			countries[tp.Col.Doc(doc).Stream] = true
		}
		return len(countries)
	}
	local := spread(15) // Tsvangirai
	global := spread(5) // swine flu
	if local >= global {
		t.Fatalf("local event in %d countries, global in %d; want local < global", local, global)
	}
	if global < 60 {
		t.Fatalf("global event only reached %d countries", global)
	}
	if local > 40 {
		t.Fatalf("local event reached %d countries", local)
	}
}

func TestTopixDeterminism(t *testing.T) {
	a, err := NewTopix(TopixConfig{Seed: 3, WeeklyArticles: 1, Vocab: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTopix(TopixConfig{Seed: 3, WeeklyArticles: 1, Vocab: 100})
	if err != nil {
		t.Fatal(err)
	}
	if a.Col.NumDocs() != b.Col.NumDocs() {
		t.Fatalf("doc counts differ: %d vs %d", a.Col.NumDocs(), b.Col.NumDocs())
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
}
