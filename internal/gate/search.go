package gate

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"stburst"
	"stburst/internal/serve"
)

// The search path must be bit-identical to an unsharded stserve over the
// same corpus and pattern sets, and one member can compute exactly that
// answer: every member loads the full corpus (only the pattern bundle is
// shard-filtered), and a term's per-document scores depend only on the
// corpus and that term's own patterns (Eq. 10/11). So the gateway picks
// a home member — the owner of the first query token, or shard 0 when no
// token survives tokenization — fetches each distinct foreign term's
// patterns of the query's kind (every kind for "any") from its owner as
// a bundle (owners in parallel, each owner's terms in turn), and
// forwards the query with those bundles to the home member, whose store
// joins them to its own for this one query (stburst.Store.QueryWith)
// and answers through the ordinary query path.
// The answer is relayed verbatim. A query whose terms all live on the
// home shard ships nothing: a plain forward.
//
// Every bundle carries the generation and corpus fingerprint of the
// store that wrote it, and the home member refuses (503) one that differs
// from its own, so a member that reloads between the fetch and the
// forward fails the query rather than mixing two generations.

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

	// Exactly the tokens the members resolve.
	toks := q.Tokens()
	home := 0
	if len(toks) > 0 {
		home = stburst.TermShard(toks[0], v.shards)
	}
	var foreign []string       // distinct, first-occurrence order
	byOwner := map[int][]int{} // shard -> indexes into foreign
	seen := map[string]bool{}
	for _, t := range toks {
		if shard := stburst.TermShard(t, v.shards); !seen[t] && shard != home {
			byOwner[shard] = append(byOwner[shard], len(foreign))
			foreign = append(foreign, t)
		}
		seen[t] = true
	}

	// One goroutine per owning member, fetching its terms in turn, so a
	// long query cannot open a connection per term. Each fetch names the
	// query's kind: the home member ranks that kind alone.
	kind := "kind=" + q.Kind.String()
	bundles := make([][]byte, len(foreign))
	errs := make([]error, len(foreign))
	var wg sync.WaitGroup
	for shard, terms := range byOwner {
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := v.owners[shard]
			for _, i := range terms {
				status, body, err := g.do(r.Context(), owner, http.MethodGet, "/v1/patterns/"+url.PathEscape(foreign[i])+"/bundle", kind, nil)
				switch {
				case err != nil:
					errs[i] = fmt.Errorf("shard %d (%s): %v", shard, owner.url, err)
				case status != http.StatusOK:
					errs[i] = fmt.Errorf("shard %d (%s) answered %d for the patterns of %q", shard, owner.url, status, foreign[i])
				default:
					bundles[i] = body
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			serve.WriteError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
	}

	body, err := json.Marshal(serve.SearchRequest{Query: q, Patterns: bundles})
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, "encoding query: "+err.Error())
		return
	}
	// The member would refuse the forwarded body with its own cap and
	// blame the client's query, which may be a few bytes: say here that
	// the shipped patterns overflowed it.
	if len(body) > serve.MaxBody {
		serve.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf(
			"the patterns of the query's %d foreign terms make a %d-byte member query body, past the members' %d-byte cap",
			len(foreign), len(body), serve.MaxBody))
		return
	}
	m := v.owners[home]
	status, resp, err := g.do(r.Context(), m, http.MethodPost, "/v1/search", "", body)
	path := "forward"
	if len(foreign) > 0 {
		path = "scatter"
	}
	g.obs.fanout(path).Observe(time.Since(start).Seconds())
	if err != nil {
		serve.WriteError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("shard %d (%s): %v", home, m.url, err))
		return
	}
	relay(w, status, resp)
}
