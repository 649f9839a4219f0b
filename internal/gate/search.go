package gate

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"stburst"
	"stburst/internal/serve"
)

// The search path must be bit-identical to an unsharded stserve over the
// same corpus and pattern sets. Two properties of the sharded layout
// make that reachable:
//
//   - Every member loads the full corpus; only the pattern bundle is
//     shard-filtered. A term's posting list (per-document score
//     log(freq+1) x burstiness) depends only on that term's own patterns,
//     so on the owning shard it is byte-identical to the unsharded list.
//   - The retrieval model is per-term decomposable: the aggregate score
//     is the sum of per-term scores in query-token order (Eq. 10), a
//     document qualifies iff every query term's posting list holds it,
//     and the Region/Time post-filter passes a document iff some single
//     query term has a pattern that overlaps it and intersects the
//     filter — a disjunction over terms.
//
// So the gateway answers a query whose tokens all hash to one shard by
// forwarding it verbatim (the owner computes exactly the unsharded
// answer), and a cross-shard query by fetching each distinct term's
// full per-term result from its owner — unfiltered for membership and
// scores, plus a filtered variant when the query carries Region/Time —
// then joining: intersect for membership, sum per-term scores in token
// order (float addition in the engine's order, so sums are
// bit-identical), pass the filter if any term's filtered list holds the
// document, and re-rank with the exported stburst.SortHits order. The
// per-kind rankings then go through stburst.QueryKinds — the store's own
// lazy merge and pagination — and the page out through
// serve.WriteSearch, the members' own encoder.

func (g *Gateway) handleSearch(w http.ResponseWriter, r *http.Request) {
	g.searches.Add(1)
	var q stburst.Query
	if !serve.DecodeBody(w, r, serve.MaxBody, "query", &q) {
		return
	}
	if err := q.Validate(); err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	v := g.snapshot()
	if !v.ok {
		serve.WriteError(w, http.StatusServiceUnavailable, v.reason)
		return
	}
	start := time.Now()

	// Exactly the tokens the members resolve, occurrence order and
	// duplicates preserved — the scoring fold depends on both.
	toks := q.Tokens()
	if len(toks) == 0 {
		// Nothing survives tokenization: any single member computes the
		// exact answer (an empty page under Eq. 10, or the store-level
		// 404 when the asked kind is not resident — that check precedes
		// term resolution). Let shard 0 speak for the cluster.
		g.forwardSearch(w, r, v, v.owners[0], q, start)
		return
	}

	home := stburst.TermShard(toks[0], v.shards)
	single := true
	for _, t := range toks[1:] {
		if stburst.TermShard(t, v.shards) != home {
			single = false
			break
		}
	}
	if single {
		g.forwardSearch(w, r, v, v.owners[home], q, start)
		return
	}
	g.scatterSearch(w, r, v, q, toks, start)
}

// forwardSearch relays the whole query to one member: every query term
// lives on its shard, so its answer is the unsharded answer.
func (g *Gateway) forwardSearch(w http.ResponseWriter, r *http.Request, v clusterView, m *member, q stburst.Query, start time.Time) {
	body, err := json.Marshal(q)
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, "encoding query: "+err.Error())
		return
	}
	status, resp, err := g.do(r.Context(), m, http.MethodPost, "/v1/search", "", body)
	g.obs.fanout("forward").Observe(time.Since(start).Seconds())
	if err != nil {
		serve.WriteError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("shard %d (%s): %v", v.memberShard(m), m.url, err))
		return
	}
	relay(w, status, resp)
}

// subKey identifies one per-term sub-query of the scatter.
type subKey struct {
	kind     stburst.Kind
	term     string
	filtered bool
}

// subResult is one sub-query's outcome.
type subResult struct {
	status int
	body   []byte
	resp   serve.SearchResponse
	err    error
}

// scatterSearch answers a cross-shard query by per-term fan-out and an
// exact join (see the package comment above).
func (g *Gateway) scatterSearch(w http.ResponseWriter, r *http.Request, v clusterView, q stburst.Query, toks []string, start time.Time) {
	kinds := stburst.Kinds()
	if q.Kind != stburst.KindAny {
		kinds = []stburst.Kind{q.Kind}
	}
	var terms []string // distinct, first-occurrence order
	seen := map[string]bool{}
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			terms = append(terms, t)
		}
	}
	filtered := q.Region != nil || q.Time != nil

	// Fan out: per kind and distinct term, the term's full unfiltered
	// ranking from its owner (membership + scores), plus the filtered
	// variant when the query restricts Region/Time.
	var jobs []subKey
	for _, kind := range kinds {
		for _, t := range terms {
			jobs = append(jobs, subKey{kind: kind, term: t})
			if filtered {
				jobs = append(jobs, subKey{kind: kind, term: t, filtered: true})
			}
		}
	}
	results := make(map[subKey]*subResult, len(jobs))
	for _, j := range jobs {
		results[j] = &subResult{}
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j subKey) {
			defer wg.Done()
			sub := stburst.Query{
				Terms: []string{j.term},
				Kind:  j.kind,
				K:     stburst.MaxK,
			}
			if j.filtered {
				if q.Region != nil {
					rr := *q.Region
					sub.Region = &rr
				}
				if q.Time != nil {
					tt := *q.Time
					sub.Time = &tt
				}
			}
			res := results[j]
			body, err := json.Marshal(sub)
			if err != nil {
				res.err = err
				return
			}
			owner := v.owners[stburst.TermShard(j.term, v.shards)]
			res.status, res.body, res.err = g.do(r.Context(), owner, http.MethodPost, "/v1/search", "", body)
			if res.err != nil || res.status != http.StatusOK {
				return
			}
			res.err = json.Unmarshal(res.body, &res.resp)
		}(j)
	}
	wg.Wait()
	g.obs.fanout("scatter").Observe(time.Since(start).Seconds())

	// The strict policy: any sub-failure refuses the query. A 404 means
	// the kind is not resident on the members — skipped under KindAny
	// (Store.Query skips non-resident kinds), relayed for a concrete
	// kind. A More-flagged sub-response would mean a posting list longer
	// than MaxK, whose tail the join cannot see.
	absent := map[stburst.Kind]bool{}
	for _, j := range jobs {
		res := results[j]
		if res.err != nil {
			owner := v.owners[stburst.TermShard(j.term, v.shards)]
			serve.WriteError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("shard %d (%s): %v", v.memberShard(owner), owner.url, res.err))
			return
		}
		switch {
		case res.status == http.StatusOK:
			if res.resp.More {
				serve.WriteError(w, http.StatusServiceUnavailable,
					fmt.Sprintf("term %q exceeds %d hits on its shard; the join cannot be exact", j.term, stburst.MaxK))
				return
			}
		case res.status == http.StatusNotFound && q.Kind == stburst.KindAny:
			absent[j.kind] = true
		case res.status == http.StatusNotFound:
			relay(w, res.status, res.body)
			return
		default:
			serve.WriteError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("shard answered %d for term %q", res.status, j.term))
			return
		}
	}

	var rankings []func() (stburst.Hit, bool)
	for _, kind := range kinds {
		if !absent[kind] {
			rankings = append(rankings, ranking(joinKind(kind, toks, terms, results, filtered, q.MinScore)))
		}
	}
	page, err := stburst.QueryKinds(r.Context(), q, rankings)
	if err != nil { // every kind absent: the store-level 404
		serve.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	serve.WriteSearch(w, q, page, start)
}

// ranking yields a fully joined, ranked list one hit at a time, as a
// member's engine ranking would.
func ranking(hits []stburst.Hit) func() (stburst.Hit, bool) {
	return func() (stburst.Hit, bool) {
		if len(hits) == 0 {
			return stburst.Hit{}, false
		}
		h := hits[0]
		hits = hits[1:]
		return h, true
	}
}

// joinKind assembles one kind's full filtered ranking from the per-term
// sub-results: conjunction for membership, token-order score sums,
// disjunctive filter pass, MinScore threshold, then the canonical
// (score desc, doc asc) order via the exported merge.
func joinKind(kind stburst.Kind, toks, terms []string, results map[subKey]*subResult, filtered bool, minScore float64) []stburst.Hit {
	byTerm := make(map[string]map[int]serve.SearchHit, len(terms))
	for _, t := range terms {
		hits := results[subKey{kind: kind, term: t}].resp.Hits
		m := make(map[int]serve.SearchHit, len(hits))
		for _, h := range hits {
			m[h.Doc] = h
		}
		byTerm[t] = m
	}
	var pass map[int]bool
	if filtered {
		pass = map[int]bool{}
		for _, t := range terms {
			for _, h := range results[subKey{kind: kind, term: t, filtered: true}].resp.Hits {
				pass[h.Doc] = true
			}
		}
	}
	first := byTerm[terms[0]]
	var hits []stburst.Hit
	for doc, wh := range first {
		inAll := true
		for _, t := range terms[1:] {
			if _, ok := byTerm[t][doc]; !ok {
				inAll = false
				break
			}
		}
		if !inAll || (filtered && !pass[doc]) {
			continue
		}
		// The engine folds per-term scores left to right over the query
		// tokens, duplicates included; identical order means identical
		// float64 rounding means identical bytes on the wire.
		score := 0.0
		for _, t := range toks {
			score += byTerm[t][doc].Score
		}
		if score < minScore {
			continue
		}
		hits = append(hits, stburst.Hit{
			Doc:    stburst.Document{ID: doc, Time: wh.Time},
			Score:  score,
			Stream: wh.Stream,
			Kind:   kind,
		})
	}
	// Map iteration is unordered, but no pre-sort is needed: doc IDs are
	// distinct within one kind, so SortHits' (score desc, doc asc) order
	// is total and lands on the engine's own ranking whatever the input
	// order.
	stburst.SortHits(hits)
	return hits
}
