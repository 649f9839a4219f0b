package stburst

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestSubscriptionValidate(t *testing.T) {
	valid := Subscription{Terms: []string{"earthquake"}, Kind: KindRegional,
		Region: &andesRegion, Time: &andesTime, Webhook: "http://localhost:9/sink"}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid subscription rejected: %v", err)
	}
	cases := map[string]Subscription{
		"no terms":          {},
		"bad kind":          {Terms: []string{"a"}, Kind: Kind(9)},
		"nan min score":     {Terms: []string{"a"}, MinScore: math.NaN()},
		"inverted region":   {Terms: []string{"a"}, Region: &Rect{MinX: 5, MaxX: 1}},
		"inverted timespan": {Terms: []string{"a"}, Time: &Timespan{Start: 7, End: 3}},
		"relative webhook":  {Terms: []string{"a"}, Webhook: "/sink"},
		"ftp webhook":       {Terms: []string{"a"}, Webhook: "ftp://host/sink"},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
}

func TestSubscribeCRUD(t *testing.T) {
	c := twoBurstCollection(t)
	s := fullStore(t, c)
	if got := s.NumSubscriptions(); got != 0 {
		t.Fatalf("fresh store has %d subscriptions", got)
	}
	// Multi-word entries tokenize (lowercased, every token contributes)
	// and duplicates collapse.
	added, err := s.Subscribe(Subscription{Owner: "ops", Terms: []string{"Earthquake RESCUE", "rescue"}})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if added.ID != 1 || !reflect.DeepEqual(added.Terms, []string{"earthquake", "rescue"}) {
		t.Fatalf("Subscribe returned %+v", added)
	}
	// Unknown and future vocabulary is accepted.
	if _, err := s.Subscribe(Subscription{Terms: []string{"volcano"}}); err != nil {
		t.Fatalf("Subscribe(unknown term): %v", err)
	}
	if _, err := s.Subscribe(Subscription{Terms: []string{"???"}}); err == nil {
		t.Fatal("Subscribe accepted a term that tokenizes to nothing")
	}
	got, ok := s.LookupSubscription(added.ID)
	if !ok || got.Owner != "ops" {
		t.Fatalf("LookupSubscription = %+v, %v", got, ok)
	}
	if list := s.Subscriptions(); len(list) != 2 || list[0].ID != 1 || list[1].ID != 2 {
		t.Fatalf("Subscriptions = %+v", list)
	}
	if !s.Unsubscribe(added.ID) || s.Unsubscribe(added.ID) {
		t.Fatal("Unsubscribe must succeed exactly once")
	}
	if got := s.NumSubscriptions(); got != 1 {
		t.Fatalf("NumSubscriptions after removal = %d", got)
	}
}

// bruteForceMatch evaluates one (index, term, predicate) triple with each
// kind's geometry spelled out over the typed accessors (which answer nil
// for the kinds the index does not hold): regional windows intersect
// through their rectangle, combinatorial patterns through a member
// stream's location, temporal intervals through their timeframe only.
func bruteForceMatch(ix *PatternIndex, term string, spec Subscription, points []Point) (count int, best float64, start, end int) {
	consider := func(score float64, s, e int) {
		if score < spec.MinScore || (spec.Time != nil && !spec.Time.Overlaps(s, e)) {
			return
		}
		if count++; count == 1 || score > best {
			best, start, end = score, s, e
		}
	}
	for _, w := range ix.RegionalPatterns(term) {
		if spec.Region == nil || w.Rect.Intersects(*spec.Region) {
			consider(w.Score, w.Start, w.End)
		}
	}
	for _, p := range ix.CombinatorialPatterns(term) {
		inside := spec.Region == nil
		for _, x := range p.Streams {
			inside = inside || spec.Region.Contains(points[x])
		}
		if inside {
			consider(p.Score, p.Start, p.End)
		}
	}
	for _, iv := range ix.TemporalBursts(term) {
		consider(iv.Score, iv.Start, iv.End)
	}
	return count, best, start, end
}

// bruteForceAlerts recomputes one batch's alerts the slow way — every
// subscription checked against every dirty term's patterns in the
// reference store, no inverted index — with the same predicate
// semantics as the matcher. It is the oracle TestIngestModel pins
// matchDirtyLocked against.
func bruteForceAlerts(ref *Store, subs []Subscription, gen uint64, dirty []int) []Alert {
	resident := ref.indexes.Load()
	dict := ref.c.col.Dict()
	points := ref.c.col.Points()
	terms := append([]int(nil), dirty...)
	sort.Ints(terms)
	var alerts []Alert
	for _, spec := range subs {
		for _, id := range terms {
			term := dict.Term(id)
			watched := false
			for _, st := range spec.Terms {
				if st == term {
					watched = true
					break
				}
			}
			if !watched {
				continue
			}
			for _, ix := range resident {
				if ix == nil {
					continue
				}
				k := ix.PatternKind()
				if spec.Kind != KindAny && spec.Kind != k {
					continue
				}
				count, best, start, end := bruteForceMatch(ix, term, spec, points)
				if count == 0 {
					continue
				}
				alerts = append(alerts, Alert{
					SubscriptionID: spec.ID, Owner: spec.Owner, Generation: gen,
					Term: term, Kind: k, Score: best, Patterns: count, Start: start, End: end,
				})
			}
		}
	}
	sort.SliceStable(alerts, func(i, j int) bool {
		if alerts[i].SubscriptionID != alerts[j].SubscriptionID {
			return alerts[i].SubscriptionID < alerts[j].SubscriptionID
		}
		return false
	})
	return alerts
}

// TestIngestAlertOracle registers predicates across all three kinds
// (plus ones that must stay silent) and checks that each Ingest's
// matcher output equals the brute-force every-subscription scan, and
// that the alerts themselves make sense.
func TestIngestAlertOracle(t *testing.T) {
	c := twoBurstCollection(t)
	s := fullStore(t, c)

	subsSpecs := []Subscription{
		{Owner: "any", Terms: []string{"earthquake"}},
		{Owner: "regional-andes", Terms: []string{"earthquake"}, Kind: KindRegional, Region: &andesRegion},
		{Owner: "regional-japan", Terms: []string{"earthquake"}, Kind: KindRegional, Region: &japanRegion},
		{Owner: "comb", Terms: []string{"earthquake"}, Kind: KindCombinatorial},
		{Owner: "temporal-late", Terms: []string{"earthquake"}, Kind: KindTemporal, Time: &japanTime},
		{Owner: "rescue", Terms: []string{"rescue"}, Kind: KindTemporal},
		{Owner: "high-bar", Terms: []string{"earthquake"}, MinScore: 1e9},
		{Owner: "silent", Terms: []string{"volcano"}},
	}
	for _, spec := range subsSpecs {
		if _, err := s.Subscribe(spec); err != nil {
			t.Fatalf("Subscribe(%s): %v", spec.Owner, err)
		}
	}

	var mu sync.Mutex
	var got []Alert
	s.SetAlertSink(func(alerts []Alert) {
		mu.Lock()
		defer mu.Unlock()
		got = append([]Alert(nil), alerts...)
	})

	// Reinforce the andes burst so "earthquake" (and "rescue") go dirty.
	var docs []IncomingDocument
	for w := 4; w <= 6; w++ {
		docs = append(docs,
			IncomingDocument{Stream: 0, Time: w, Text: "earthquake rescue teams dig"},
			IncomingDocument{Stream: 1, Time: w, Text: "earthquake tremors again"})
	}
	res, err := s.Ingest(context.Background(), docs)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}

	// Recompute the dirty-term ID set the matcher saw.
	dict := s.c.col.Dict()
	var dirty []int
	for _, term := range []string{"earthquake", "rescue", "teams", "dig", "tremors", "again"} {
		if id, ok := dict.Lookup(term); ok {
			dirty = append(dirty, id)
		}
	}
	want := bruteForceAlerts(s, s.Subscriptions(), s.Generation(), dirty)

	mu.Lock()
	if len(got) == 0 {
		t.Fatal("sink received no alerts")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("matcher disagrees with brute force:\n got %+v\nwant %+v", got, want)
	}
	byOwner := make(map[string][]Alert)
	for _, a := range got {
		if a.Generation != res.Generation {
			t.Fatalf("alert generation %d, ingest generation %d", a.Generation, res.Generation)
		}
		byOwner[a.Owner] = append(byOwner[a.Owner], a)
	}
	for _, owner := range []string{"silent", "high-bar"} {
		if as := byOwner[owner]; len(as) != 0 {
			t.Fatalf("%s subscription fired: %+v", owner, as)
		}
	}
	for _, owner := range []string{"any", "regional-andes", "comb", "rescue"} {
		if len(byOwner[owner]) == 0 {
			t.Fatalf("%s subscription never fired; got %+v", owner, byOwner)
		}
	}
	for _, a := range byOwner["regional-andes"] {
		if a.Kind != KindRegional || a.Term != "earthquake" {
			t.Fatalf("regional-andes alert %+v", a)
		}
	}
	// The temporal-late subscription is span-gated to the japan weeks; any
	// alert it gets must overlap that span.
	for _, a := range byOwner["temporal-late"] {
		if a.End < japanTime.Start || a.Start > japanTime.End {
			t.Fatalf("temporal-late alert outside its span: %+v", a)
		}
	}
	got = nil
	mu.Unlock()

	// A batch whose dirty terms nobody watches may only alert through
	// terms an earlier batch left watched — never the new ones.
	if _, err := s.Ingest(context.Background(), []IncomingDocument{
		{Stream: 0, Time: 2, Text: "quiet bureaucratic memo"}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, a := range got {
		switch a.Term {
		case "quiet", "bureaucratic", "memo":
			t.Fatalf("unwatched dirty term produced an alert: %+v", a)
		}
	}
}

// TestSubscriptionPersistence round-trips subscriptions through
// Save/LoadStore and confirms pre-subscription bundles load as zero
// subscriptions.
func TestSubscriptionPersistence(t *testing.T) {
	c := twoBurstCollection(t)
	s := fullStore(t, c)

	// No subscriptions: the bundle stays byte-identical to the
	// pre-subscription format and reloads with zero subscriptions.
	var plain bytes.Buffer
	if err := s.Save(&plain); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadStore(bytes.NewReader(plain.Bytes()), c)
	if err != nil {
		t.Fatalf("LoadStore(plain): %v", err)
	}
	if got := loaded.NumSubscriptions(); got != 0 {
		t.Fatalf("pre-subscription bundle loaded %d subscriptions", got)
	}

	specs := []Subscription{
		{Owner: "ops", Terms: []string{"earthquake"}, Kind: KindRegional,
			Region: &andesRegion, Time: &andesTime, MinScore: 0.5,
			Webhook: "http://localhost:9999/sink"},
		{Owner: "sse-only", Terms: []string{"rescue", "volcano"}},
	}
	for _, spec := range specs {
		if _, err := s.Subscribe(spec); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	s.Unsubscribe(1) // a gap: the surviving ID 2 must not re-pack to 1

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Attach to a freshly built identical collection so the original and
	// reloaded stores ingest into separate corpora below.
	reloaded, err := LoadStore(bytes.NewReader(buf.Bytes()), twoBurstCollection(t))
	if err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	if got, want := reloaded.Subscriptions(), s.Subscriptions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("subscriptions after round-trip:\n got %+v\nwant %+v", got, want)
	}
	if reloaded.Generation() != s.Generation() {
		t.Fatalf("generation after round-trip = %d, want %d", reloaded.Generation(), s.Generation())
	}
	// New registrations resume past every persisted ID.
	added, err := reloaded.Subscribe(Subscription{Terms: []string{"tsunami"}})
	if err != nil {
		t.Fatalf("Subscribe after reload: %v", err)
	}
	if added.ID != 3 {
		t.Fatalf("post-reload ID = %d, want 3", added.ID)
	}
	// And the restored registry matches on ingest exactly like the
	// original: same alerts from the same batch.
	var origAlerts, reAlerts []Alert
	s.SetAlertSink(func(a []Alert) { origAlerts = append([]Alert(nil), a...) })
	reloaded.Unsubscribe(added.ID)
	reloaded.SetAlertSink(func(a []Alert) { reAlerts = append([]Alert(nil), a...) })
	batch := []IncomingDocument{{Stream: 0, Time: 5, Text: "earthquake rescue earthquake"}}
	if _, err := s.Ingest(context.Background(), batch); err != nil {
		t.Fatalf("Ingest(original): %v", err)
	}
	if _, err := reloaded.Ingest(context.Background(), batch); err != nil {
		t.Fatalf("Ingest(reloaded): %v", err)
	}
	if !reflect.DeepEqual(origAlerts, reAlerts) {
		t.Fatalf("restored registry alerts differ:\n got %+v\nwant %+v", reAlerts, origAlerts)
	}
}

// TestConcurrentIngestSubscriptionCRUD hammers Subscribe/Unsubscribe/
// List against concurrent Ingest (with an active sink) — the race-suite
// case for the subscriptions subsystem.
func TestConcurrentIngestSubscriptionCRUD(t *testing.T) {
	c := twoBurstCollection(t)
	s := fullStore(t, c)
	s.SetAlertSink(func(alerts []Alert) {
		for _, a := range alerts {
			_ = a.Score
		}
	})
	if _, err := s.Subscribe(Subscription{Terms: []string{"earthquake"}}); err != nil {
		t.Fatal(err)
	}
	const iters = 20
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_, err := s.Ingest(context.Background(), []IncomingDocument{
				{Stream: i % 4, Time: i % 16, Text: "earthquake rescue update"}})
			if err != nil {
				t.Errorf("Ingest: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			added, err := s.Subscribe(Subscription{Terms: []string{"earthquake", "rescue"}, Kind: KindTemporal})
			if err != nil {
				t.Errorf("Subscribe: %v", err)
				return
			}
			s.Unsubscribe(added.ID)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.Subscriptions()
			s.NumSubscriptions()
			s.LookupSubscription(1)
		}
	}()
	wg.Wait()
}

// BenchmarkAlertMatch pins the tentpole's complexity claim: per-ingest
// match cost is a function of the dirty-term set, not the registered-
// subscription count. The subscription population grows 100× across
// sub-benchmarks while the number of subscriptions watching the dirty
// terms stays constant, so ns/op should stay flat.
func BenchmarkAlertMatch(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			c := twoBurstCollection(b)
			s, err := c.MineStore(context.Background(), nil)
			if err != nil {
				b.Fatal(err)
			}
			// A fixed handful watch the dirty terms; the rest watch
			// vocabulary the batch never touches.
			watchers := []Subscription{
				{Terms: []string{"earthquake"}},
				{Terms: []string{"earthquake"}, Kind: KindRegional, Region: &andesRegion},
				{Terms: []string{"rescue"}, Kind: KindTemporal},
			}
			for _, spec := range watchers {
				if _, err := s.Subscribe(spec); err != nil {
					b.Fatal(err)
				}
			}
			for i := len(watchers); i < n; i++ {
				if _, err := s.Subscribe(Subscription{Terms: []string{fmt.Sprintf("filler%d", i)}}); err != nil {
					b.Fatal(err)
				}
			}
			dict := s.c.col.Dict()
			var dirty []int
			for _, term := range []string{"earthquake", "rescue"} {
				id, ok := dict.Lookup(term)
				if !ok {
					b.Fatalf("term %q not interned", term)
				}
				dirty = append(dirty, id)
			}
			s.writeMu.Lock()
			defer s.writeMu.Unlock()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if alerts := s.matchDirtyLocked(dirty); len(alerts) == 0 {
					b.Fatal("matcher found nothing")
				}
			}
		})
	}
}

// FuzzSubscriptionJSON: arbitrary bytes decode into a Subscription
// without panic. A spec that validates registers on a small mined store,
// or is refused because the store is at its limit. A registered spec is stored with its
// fields intact and its terms tokenized and deduplicated, its stored form
// validates, and Save → LoadStore returns the same subscription list.
func FuzzSubscriptionJSON(f *testing.F) {
	f.Add([]byte(`{"terms":["earthquake"]}`))  // even length: refused at the limit
	f.Add([]byte(`{"terms":["earthquake"]} `)) // odd length: registered
	f.Add([]byte(`{"owner":"ops","terms":["Earthquake rescue","rescue"],"kind":"regional","region":{"min_x":-1,"min_y":-1,"max_x":5,"max_y":5},"time":{"start":4,"end":6},"min_score":0.5,"webhook":"https://example.com/sink"}`))
	f.Add([]byte(`{"id":7,"terms":["volcano"],"kind":"tb","min_score":-3}`))
	f.Add([]byte(`{"terms":["!!"],"kind":"stcomb"}`))
	f.Add([]byte(`{"terms":[],"time":{"start":9,"end":2}}`))
	c := twoBurstCollection(f)
	seed, err := c.MineStore(context.Background(), nil)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := seed.Subscribe(Subscription{Owner: "seed", Terms: []string{"earthquake"}}); err != nil {
		f.Fatal(err)
	}
	var bundle bytes.Buffer
	if err := seed.Save(&bundle); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Subscription
		if json.Unmarshal(data, &spec) != nil || spec.Validate() != nil {
			return
		}
		s, err := LoadStore(bytes.NewReader(bundle.Bytes()), c)
		if err != nil {
			t.Fatal(err)
		}
		// One subscription is resident; a limit of one refuses the spec.
		s.SetSubscriptionLimit(1 + len(data)%2)
		got, err := s.Subscribe(spec)
		if err != nil {
			if !errors.Is(err, ErrSubscriptionLimit) {
				t.Fatalf("Subscribe(%+v) = %v", spec, err)
			}
			if n := s.NumSubscriptions(); n != 1 {
				t.Fatalf("refused Subscribe left %d subscriptions, want 1", n)
			}
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("stored form %+v does not validate: %v", got, err)
		}
		var terms []string
		for _, term := range spec.Terms {
			for _, tok := range tokenizer.Tokenize(term) {
				if !slices.Contains(terms, tok) {
					terms = append(terms, tok)
				}
			}
		}
		want := spec
		want.ID, want.Terms = 2, terms
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stored %+v, want %+v", got, want)
		}
		if looked, ok := s.LookupSubscription(got.ID); !ok || !reflect.DeepEqual(looked, got) {
			t.Fatalf("LookupSubscription(%d) = %+v, %v; want %+v", got.ID, looked, ok, got)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadStore(&buf, c)
		if err != nil {
			t.Fatalf("LoadStore after Subscribe(%+v): %v", got, err)
		}
		if a, b := s.Subscriptions(), loaded.Subscriptions(); !reflect.DeepEqual(a, b) {
			t.Fatalf("Subscriptions after Save → LoadStore = %+v, want %+v", b, a)
		}
	})
}
