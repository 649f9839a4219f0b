package gen

import (
	"fmt"
	"math"
	"math/rand"

	"stburst/internal/geo"
	"stburst/internal/stream"
)

// TopixConfig parameterizes the synthetic Topix-like corpus (§6.1 of the
// paper). The real Topix crawl (305,641 articles from 181 countries,
// Sep-08..Jul-09) is not available; this generator reproduces its shape —
// country streams, a 48-week timeline, Zipf background text, the 18
// Major Events of Table 9 injected with tier-dependent spatial reach and
// Weibull temporal envelopes — together with the ground-truth relevance
// labels a human annotator provided in the paper.
type TopixConfig struct {
	Seed int64
	// WeeklyArticles is the mean number of background articles per
	// country per week. The paper's corpus averages ≈35.2; the default
	// is 12 to keep the default harness fast — pass 35 to match the
	// paper's 305k scale.
	WeeklyArticles float64
	// Vocab is the background vocabulary size (defaults to 6000). Small
	// vocabularies make every term dense; real text has a long sparse
	// tail, which Figs. 5-6 depend on.
	Vocab int
	// TokensPerArticle is the mean article length in kept terms
	// (defaults to 30).
	TokensPerArticle float64
	// RetainCounts keeps per-document term counts in the collection
	// (needed when exporting the corpus); off by default to save memory.
	RetainCounts bool
}

// ambientEventTermRate is the probability that a background article
// mentions an event term ("earthquake", "piracy", ... appear in
// unrelated contexts too). Terms of global events are mentioned far
// more often than names of local figures. This ambient usage plays two
// roles from the paper's real corpus: it puts a small negative drag
// (observed < expected) on every stream outside an event's region,
// which keeps STLocal rectangles tight, and it gives the temporal-only
// TB engine its false positives on localized queries (Table 3).
const ambientEventTermRate = 0.06

func (c TopixConfig) withDefaults() TopixConfig {
	if c.WeeklyArticles == 0 {
		c.WeeklyArticles = 12
	}
	if c.Vocab == 0 {
		c.Vocab = 6000
	}
	if c.TokensPerArticle == 0 {
		c.TokensPerArticle = 30
	}
	return c
}

// Weeks is the timeline length of the Topix-like corpus: 48 weekly
// timestamps spanning September 2008 through July 2009.
const Weeks = 48

// Topix is the generated corpus plus its ground truth.
type Topix struct {
	Col *stream.Collection
	// Labels[docID] is the 1-based event ID that generated the document,
	// or 0 for background articles.
	Labels []int
	// QueryTerms[eventID] holds the interned term IDs of the event's
	// query (Table 9, 2nd column).
	QueryTerms map[int][]int
	cfg        TopixConfig
}

// NewTopix generates the corpus deterministically from cfg.Seed.
func NewTopix(cfg TopixConfig) (*Topix, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Project the 181 countries onto the 2-D plane with MDS over their
	// pairwise geographic distances, exactly as the paper does (§6.1),
	// through ProjectStreams, so the corpus reloaded from its file has
	// the same locations for every seed. The projection on the
	// generator's own RNG stays, its points unused: its draws advance
	// the RNG, and every document generated after it depends on them.
	coords := make([]geo.LatLon, len(Countries))
	names := make([]string, len(Countries))
	for i, c := range Countries {
		coords[i], names[i] = c.Geo, c.Name
	}
	if _, err := geo.MDS(geo.DistanceMatrix(coords, geo.Haversine), rng); err != nil {
		return nil, fmt.Errorf("gen: projecting countries: %w", err)
	}
	infos, err := ProjectStreams(names)
	if err != nil {
		return nil, fmt.Errorf("gen: projecting countries: %w", err)
	}
	col := stream.NewCollection(infos, Weeks)
	col.SetRetainCounts(cfg.RetainCounts)

	t := &Topix{Col: col, QueryTerms: make(map[int][]int), cfg: cfg}

	// Intern the vocabulary: event query terms first, then background
	// words. Event terms are part of the ambient vocabulary as well,
	// weighted by tier: "earthquake" or "financial" appear in unrelated
	// articles all the time, the name of a local political figure only
	// rarely.
	var eventTermIDs []int
	var eventTermWeights []float64
	for _, ev := range Events {
		var ids []int
		w := ev.Ambient
		for _, q := range ev.Query {
			id := col.Dict().ID(q)
			ids = append(ids, id)
			eventTermIDs = append(eventTermIDs, id)
			eventTermWeights = append(eventTermWeights, w)
		}
		t.QueryTerms[ev.ID] = ids
	}
	var weightSum float64
	for _, w := range eventTermWeights {
		weightSum += w
	}
	sampleEventTerm := func() int {
		r := rng.Float64() * weightSum
		for i, w := range eventTermWeights {
			r -= w
			if r < 0 {
				return eventTermIDs[i]
			}
		}
		return eventTermIDs[len(eventTermIDs)-1]
	}
	background := make([]int, cfg.Vocab)
	for i := range background {
		background[i] = col.Dict().ID(fmt.Sprintf("w%04d", i))
	}
	zipf := rand.NewZipf(rng, 1.2, 4, uint64(cfg.Vocab-1))

	addArticle := func(country, week int, counts map[int]int, label int) error {
		if _, err := col.AddCounts(country, week, counts); err != nil {
			return err
		}
		t.Labels = append(t.Labels, label)
		return nil
	}
	backgroundCounts := func() map[int]int {
		n := 1 + poisson(rng, cfg.TokensPerArticle)
		counts := make(map[int]int, n/2+2)
		for j := 0; j < n; j++ {
			counts[background[zipf.Uint64()]]++
		}
		if rng.Float64() < ambientEventTermRate {
			counts[sampleEventTerm()] += 1 + poisson(rng, 0.5)
		}
		return counts
	}

	// Background articles.
	for country := range Countries {
		for week := 0; week < Weeks; week++ {
			for a := poisson(rng, cfg.WeeklyArticles); a > 0; a-- {
				if err := addArticle(country, week, backgroundCounts(), 0); err != nil {
					return nil, err
				}
			}
		}
	}

	// Event articles: every episode radiates from its epicenter with its
	// reach's distance decay; the weekly volume follows the episode's
	// Weibull envelope.
	for _, ev := range Events {
		for _, ep := range ev.Episodes {
			epi := CountryIndex(ep.Epicenter)
			if epi < 0 {
				return nil, fmt.Errorf("gen: unknown epicenter %q", ep.Epicenter)
			}
			spec := ep.reach(ev.Tier)
			envelope := WeibullEnvelope(ep.Length, float64(ep.Length)*0.45, ep.ShapeK, 1)
			for country := range Countries {
				d := geo.Haversine(Countries[epi].Geo, Countries[country].Geo)
				affinity := math.Exp(-d / spec.TauKm)
				if rng.Float64() < spec.Floor {
					// Worldwide media echo: a far country still covers
					// the story, at reduced volume.
					if pick := (0.3 + rng.Float64()*0.7) * spec.Pickup; pick > affinity {
						affinity = pick
					}
				}
				if affinity < 0.02 {
					continue
				}
				scale := cfg.WeeklyArticles / 12
				emit := func(week int, mean, freqBoost float64, label int) error {
					if week < 0 || week >= Weeks {
						return nil
					}
					for a := poisson(rng, mean); a > 0; a-- {
						counts := backgroundCounts()
						for _, id := range t.QueryTerms[ev.ID] {
							counts[id] += 1 + poisson(rng, freqBoost)
						}
						if err := addArticle(country, week, counts, label); err != nil {
							return err
						}
					}
					return nil
				}
				// Light regional pre-event chatter (the rebel leader's
				// earlier campaign, tremors before the quake): lifts the
				// merged temporal series just before the event so the
				// TB engine's burst window starts early, but its articles
				// are too low-relevance to crack a top-10.
				for w := 1; w <= 6; w++ {
					if err := emit(ep.Start-w, ep.Peak*0.06*affinity*scale, 0.1, 0); err != nil {
						return nil, err
					}
				}
				// The event itself.
				for w := 0; w < ep.Length; w++ {
					if err := emit(ep.Start+w, ep.Peak*envelope[w]*affinity*scale, 0.9, ev.ID); err != nil {
						return nil, err
					}
				}
				// Localized aftermath: tier-local stories "remain in the
				// local spotlight even after the event has faded in
				// locations further from the source" (§6.2.1) — this is
				// what stretches STLocal's timeframes in Fig. 4.
				if ev.Tier == TierLocal && affinity > 0.15 {
					for w := 1; w <= 8; w++ {
						mean := ep.Peak * 0.18 * math.Exp(-float64(w)/3) * affinity * scale
						if err := emit(ep.Start+ep.Length-1+w, mean, 0.9, ev.ID); err != nil {
							return nil, err
						}
					}
				}
			}
		}
		// Confuser coverage: related-but-not-relevant stories that use
		// the query terms (label 0).
		for _, cf := range ev.Confusers {
			country := CountryIndex(cf.Country)
			if country < 0 {
				return nil, fmt.Errorf("gen: unknown confuser country %q", cf.Country)
			}
			for w := 0; w < cf.Length; w++ {
				week := cf.Start + w
				if week < 0 || week >= Weeks {
					continue
				}
				mean := cf.Rate * cfg.WeeklyArticles / 12
				for a := poisson(rng, mean); a > 0; a-- {
					counts := backgroundCounts()
					for _, id := range t.QueryTerms[ev.ID] {
						counts[id] += 1 + poisson(rng, cf.FreqBoost)
					}
					if err := addArticle(country, week, counts, 0); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return t, nil
}

// Relevant returns the set of document IDs generated by the given event —
// the ground truth replacing the paper's human annotator in the Table 3
// evaluation.
func (t *Topix) Relevant(eventID int) map[int]bool {
	out := make(map[int]bool)
	for doc, label := range t.Labels {
		if label == eventID {
			out[doc] = true
		}
	}
	return out
}

// Config returns the effective (defaulted) configuration.
func (t *Topix) Config() TopixConfig { return t.cfg }

// poisson draws a Poisson variate with the given mean (Knuth's method
// for small means, normal approximation above 30).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
