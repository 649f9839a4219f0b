package stburst

import (
	"encoding/json"
	"fmt"
	"net/url"
	"sort"

	"stburst/internal/index"
	"stburst/internal/sub"
)

// Subscription is a standing query registered with a Store: the paper's
// push scenario. Where a Query asks "which documents are bursty about X
// here, now?" once, a Subscription asks it forever — after every Ingest
// the store intersects the freshly re-mined patterns of the batch's
// dirty terms against the predicate and emits an Alert per (term, kind)
// that matches.
//
// The predicate is the Query shape minus pagination: Terms (required,
// normalized through the collection's tokenizer on registration), an
// optional concrete Kind (KindAny watches every resident kind), optional
// Region/Time restricting pattern geometry exactly as in retrieval
// (regional windows intersect through their rectangle, combinatorial
// patterns through member-stream locations, temporal intervals through
// their timeframe only), and MinScore dropping patterns scoring below
// the threshold — here a pattern score, since a standing query watches
// patterns, not ranked documents.
//
// Webhook, when set, is the URL alert batches are POSTed to; a
// subscription without one is observable through the SSE feed only.
type Subscription struct {
	ID       uint64    `json:"id,omitempty"`
	Owner    string    `json:"owner,omitempty"`
	Terms    []string  `json:"terms"`
	Kind     Kind      `json:"kind,omitempty"`
	Region   *Rect     `json:"region,omitempty"`
	Time     *Timespan `json:"time,omitempty"`
	MinScore float64   `json:"min_score,omitempty"`
	Webhook  string    `json:"webhook,omitempty"`
}

// Validate checks the subscription's predicate by reusing Query.Validate
// on its Query shape (so the rules — non-inverted Region/Time, finite
// MinScore, a valid Kind — are literally the retrieval rules), then adds
// the subscription-only constraints: Terms is required (a standing query
// must name what it watches; free Text is a retrieval convenience, not a
// predicate) and every entry must keep at least one token through the
// collection's tokenizer, and Webhook, when present, must be an absolute
// http(s) URL. It is the whole admission rule: a spec that validates is
// refused by Store.Subscribe only at the subscription limit.
func (s Subscription) Validate() error {
	if len(s.Terms) == 0 {
		return fmt.Errorf("stburst: subscription needs at least one term")
	}
	for _, t := range s.Terms {
		if len(tokenizer.Tokenize(t)) == 0 {
			return fmt.Errorf("stburst: subscription term %q tokenizes to nothing", t)
		}
	}
	q := Query{Terms: s.Terms, Kind: s.Kind, Region: s.Region, Time: s.Time, MinScore: s.MinScore}
	if err := q.Validate(); err != nil {
		return err
	}
	if s.Webhook != "" {
		u, err := url.Parse(s.Webhook)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("stburst: subscription webhook must be an absolute http(s) URL")
		}
	}
	return nil
}

// clone deep-copies the subscription, so the store's registry never
// aliases caller-held slices or pointers.
func (s Subscription) clone() Subscription {
	c := s
	c.Terms = append([]string(nil), s.Terms...)
	if s.Region != nil {
		r := *s.Region
		c.Region = &r
	}
	if s.Time != nil {
		t := *s.Time
		c.Time = &t
	}
	return c
}

// Alert reports one standing-query match: an Ingest re-mined one of the
// subscription's terms and at least one fresh pattern of the given kind
// satisfied the predicate. Patterns counts how many did; Score and
// [Start, End] summarize the best of them (highest score, first mined on
// ties). Generation is the store generation the matching index set was
// installed at — responses observed under it include the triggering
// batch.
type Alert struct {
	SubscriptionID uint64  `json:"subscription_id"`
	Owner          string  `json:"owner,omitempty"`
	Generation     uint64  `json:"generation"`
	Term           string  `json:"term"`
	Kind           Kind    `json:"kind"`
	Score          float64 `json:"score"`
	Patterns       int     `json:"patterns"`
	Start          int     `json:"start"`
	End            int     `json:"end"`
}

// AlertSink receives the alerts one Ingest produced, after its refreshed
// indexes were installed and the write lock released. Alerts are sorted
// by (subscription, term, kind) and a sink call carries every match of
// exactly one batch — the delivery layer's batching boundary. The sink
// runs on the ingesting goroutine: implementations must hand off
// quickly (the serving layer enqueues to a bounded dispatcher) and never
// call back into the store's write path.
type AlertSink func(alerts []Alert)

// SetAlertSink installs the function Ingest hands matched alerts to (nil
// disconnects). The store owns matching; the sink owns delivery.
func (s *Store) SetAlertSink(sink AlertSink) {
	if sink == nil {
		s.alertSink.Store(nil)
		return
	}
	s.alertSink.Store(&sink)
}

// ErrSubscriptionLimit reports that Subscribe was refused because the
// store already holds its limit's worth of standing queries (see
// SetSubscriptionLimit). Test with errors.Is; the HTTP layer maps it
// to 429 Too Many Requests.
var ErrSubscriptionLimit = sub.ErrRegistryFull

// SetSubscriptionLimit bounds the number of standing queries Subscribe
// accepts; n <= 0 restores the default (65536). The limit keeps the
// unauthenticated registration surface from growing memory without
// bound, and the default sits well below the bundle format's 1<<20
// subscriptions ceiling so a full registry always saves. Subscriptions
// restored from a bundle are never dropped by a lower limit, but new
// Subscribes are refused until the count falls below it.
func (s *Store) SetSubscriptionLimit(n int) { s.subs.SetLimit(n) }

// Subscribe validates and registers a standing query, returning the
// stored form: ID assigned, terms normalized through the collection's
// tokenizer (a multi-word entry contributes every token, duplicates
// collapse). Terms the collection has never seen are accepted — unlike a
// one-shot Query, a standing query naturally watches vocabulary that
// only future ingestion will intern — but every entry must survive
// tokenization. A store at its subscription limit refuses with a
// wrapped ErrSubscriptionLimit.
func (s *Store) Subscribe(spec Subscription) (Subscription, error) {
	if err := spec.Validate(); err != nil {
		return Subscription{}, err
	}
	spec.Terms = normalizeTerms(spec.Terms)
	return s.subs.Add(spec.Terms, func(id uint64) Subscription {
		spec.ID = id
		return spec
	})
}

// normalizeTerms tokenizes every entry (each token contributes) and
// deduplicates, preserving first-seen order.
func normalizeTerms(terms []string) []string {
	var out []string
	seen := make(map[string]struct{}, len(terms))
	for _, t := range terms {
		for _, tok := range tokenizer.Tokenize(t) {
			if _, dup := seen[tok]; dup {
				continue
			}
			seen[tok] = struct{}{}
			out = append(out, tok)
		}
	}
	return out
}

// Unsubscribe removes a standing query, reporting whether it existed.
func (s *Store) Unsubscribe(id uint64) bool { return s.subs.Remove(id) }

// LookupSubscription returns one registered standing query.
func (s *Store) LookupSubscription(id uint64) (Subscription, bool) { return s.subs.Get(id) }

// Subscriptions lists every registered standing query in ascending ID
// order.
func (s *Store) Subscriptions() []Subscription { return s.subs.List() }

// NumSubscriptions returns the number of registered standing queries.
func (s *Store) NumSubscriptions() int { return s.subs.Count() }

// matchDirtyLocked intersects the freshly installed patterns of the
// dirty terms against the registered standing queries and returns the
// resulting alerts; callers hold writeMu and call it immediately after
// the refreshed index set is installed, so s.indexes and s.gen describe
// exactly the state the batch produced.
//
// Cost is O(dirty terms): each dirty term is one inverted-index probe,
// and only terms somebody watches pay for pattern evaluation. The total
// registered-subscription count never enters the loop — the property the
// BenchmarkAlertMatch suite pins down.
func (s *Store) matchDirtyLocked(dirty []int) []Alert {
	if s.subs.Count() == 0 {
		return nil
	}
	resident := s.indexes.Load()
	gen := s.Generation()
	dict := s.c.col.Dict()
	points := s.c.col.Points()

	// Deterministic alert order: ascending term ID, then the registry's
	// ascending-ID candidate order, then kind.
	terms := append([]int(nil), dirty...)
	sort.Ints(terms)

	var alerts []Alert
	for _, id := range terms {
		term := dict.Term(id)
		cands := s.subs.Candidates(term)
		if len(cands) == 0 {
			continue
		}
		for _, cand := range cands {
			for _, ix := range resident {
				if ix == nil {
					continue
				}
				k := ix.PatternKind()
				if cand.Kind != KindAny && cand.Kind != k {
					continue
				}
				// The geometry predicate is the exact retrieval one, so a
				// standing query matches precisely when the equivalent
				// one-shot Query's post-filter would accept a pattern. The
				// best match is the highest-scoring, first mined on ties.
				count, best := 0, index.View{}
				for _, v := range ix.set.Matching(id, points, cand.Region, cand.Time) {
					if v.Score >= cand.MinScore {
						if count++; count == 1 || v.Score > best.Score {
							best = v
						}
					}
				}
				if count == 0 {
					continue
				}
				alerts = append(alerts, Alert{
					SubscriptionID: cand.ID,
					Owner:          cand.Owner,
					Generation:     gen,
					Term:           term,
					Kind:           k,
					Score:          best.Score,
					Patterns:       count,
					Start:          best.Start,
					End:            best.End,
				})
			}
		}
	}
	// The term-major loop above orders by (term, subscription, kind);
	// regroup by subscription so one subscriber's alerts are adjacent —
	// the delivery layer batches per subscription.
	sort.SliceStable(alerts, func(i, j int) bool {
		return alerts[i].SubscriptionID < alerts[j].SubscriptionID
	})
	return alerts
}

// emitAlerts hands one batch's alerts to the installed sink, if any.
// Called by Ingest after writeMu is released — a sink can safely read
// the store but must not block the ingesting goroutine for long.
func (s *Store) emitAlerts(alerts []Alert) {
	if len(alerts) == 0 {
		return
	}
	if f := s.alertSink.Load(); f != nil {
		(*f)(alerts)
	}
}

// subscriptionBlobs serializes the registered standing queries for the
// bundle's subscriptions block, in ascending ID order; callers hold
// writeMu (Save's snapshot includes the subscriptions).
func (s *Store) subscriptionBlobs() ([][]byte, error) {
	subs := s.Subscriptions()
	if len(subs) == 0 {
		return nil, nil
	}
	blobs := make([][]byte, len(subs))
	for i, spec := range subs {
		b, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("stburst: encoding subscription %d: %w", spec.ID, err)
		}
		blobs[i] = b
	}
	return blobs, nil
}

// restoreSubscriptions re-registers persisted subscription blobs on
// load. Blobs were written by subscriptionBlobs, so IDs are present and
// unique; any undecodable or invalid blob fails the load — a bundle that
// passed its checksum cannot hold a half-usable subscription set.
func (s *Store) restoreSubscriptions(blobs [][]byte) error {
	for _, b := range blobs {
		var spec Subscription
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("stburst: decoding persisted subscription: %w", err)
		}
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("stburst: persisted subscription %d invalid: %w", spec.ID, err)
		}
		if err := s.subs.Restore(spec.ID, spec.Terms, spec); err != nil {
			return err
		}
	}
	return nil
}
