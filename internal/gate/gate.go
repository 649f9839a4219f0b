// Package gate implements the stgate scatter-gather coordinator: one
// HTTP front over a set of shard-serving stserve members, each holding
// the pattern bundles of one vocabulary shard (stmine -shards) over the
// full corpus.
//
// The gateway keeps a health-checked member table (periodic /v1/healthz
// polls, with backoff for members that stay down), refuses to serve
// while the member set does not form exactly one consistent partition —
// every shard index present exactly once, all members reporting the
// same shard count, partition scheme, corpus fingerprint and store
// generation — and fans queries out under per-shard timeouts:
//
//	POST /v1/search          scatter-gather retrieval; pages are
//	                         bit-identical to an unsharded stserve
//	GET  /v1/patterns/{term} proxied to the member owning the term
//	GET  /v1/stats           aggregated cluster statistics
//	GET  /v1/generation      the cluster's common store generation
//	GET  /v1/healthz         gateway readiness + member table
//	GET  /metrics            Prometheus text exposition
//
// The failure policy is strict: a request that cannot be answered
// exactly — a member down or unreachable, a mixed-generation member
// set, a truncated sub-response — is a 503, never a silently partial
// page.
package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stburst"
	"stburst/internal/serve"
)

const (
	// DefaultPollInterval is the member health poll cadence.
	DefaultPollInterval = 2 * time.Second
	// DefaultShardTimeout bounds every upstream request to one member.
	DefaultShardTimeout = 5 * time.Second
	// downAfter is the number of consecutive failures (polls or request
	// path) after which a member counts as down rather than degraded.
	downAfter = 3
	// maxBackoffShift caps the poll backoff for down members at
	// interval << maxBackoffShift (8x).
	maxBackoffShift = 3
)

// Config configures a Gateway.
type Config struct {
	// Members are the base URLs of the shard-serving stserve instances,
	// e.g. "http://10.0.0.1:8080". Order is irrelevant: shard ownership
	// comes from each member's reported identity, not its position.
	Members []string
	// PollInterval is the health poll cadence (DefaultPollInterval when
	// zero).
	PollInterval time.Duration
	// ShardTimeout bounds each upstream request (DefaultShardTimeout
	// when zero).
	ShardTimeout time.Duration
	// Client is the HTTP client for upstream traffic; nil builds one
	// with pooled connections per member.
	Client *http.Client
}

// Gateway is the scatter-gather coordinator. It implements http.Handler.
type Gateway struct {
	members   []*member
	client    *http.Client
	pollEvery time.Duration
	timeout   time.Duration
	mux       *http.ServeMux
	obs       *observer
	started   time.Time
	requests  atomic.Int64
	searches  atomic.Int64
}

// New builds a gateway over the configured members. It does not poll:
// call Refresh (or start Run) before serving traffic.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("gate: no members configured")
	}
	g := &Gateway{
		pollEvery: cfg.PollInterval,
		timeout:   cfg.ShardTimeout,
		client:    cfg.Client,
		mux:       http.NewServeMux(),
		started:   time.Now(),
	}
	if g.pollEvery <= 0 {
		g.pollEvery = DefaultPollInterval
	}
	if g.timeout <= 0 {
		g.timeout = DefaultShardTimeout
	}
	if g.client == nil {
		g.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * len(cfg.Members),
			MaxIdleConnsPerHost: 4,
		}}
	}
	seen := map[string]bool{}
	for _, raw := range cfg.Members {
		u := strings.TrimRight(raw, "/")
		if u == "" {
			return nil, fmt.Errorf("gate: empty member URL")
		}
		if seen[u] {
			return nil, fmt.Errorf("gate: duplicate member %s", u)
		}
		seen[u] = true
		g.members = append(g.members, &member{url: u})
	}
	// The route set matches stserve's mux patterns, so per-route metrics
	// and load reports line up across the whole cluster.
	g.mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /v1/stats", g.handleStats)
	g.mux.HandleFunc("GET /v1/generation", g.handleGeneration)
	g.mux.HandleFunc("POST /v1/search", g.handleSearch)
	g.mux.HandleFunc("GET /v1/patterns/{term}", g.handlePatterns)
	g.mux.HandleFunc("POST /v1/documents", g.handleDocuments)
	// Standing queries live on an unsharded stserve: the coordinator
	// could fan CRUD out, but alert matching runs inside each member's
	// ingest path and a per-shard view of a cross-shard predicate would
	// fire partial (wrong) alerts. Answer 501 with the redirect story
	// rather than 404, so clients learn the surface exists elsewhere.
	g.mux.HandleFunc("POST /v1/subscriptions", g.handleSubscriptionsUnsupported)
	g.mux.HandleFunc("GET /v1/subscriptions", g.handleSubscriptionsUnsupported)
	g.mux.HandleFunc("GET /v1/subscriptions/{id}", g.handleSubscriptionsUnsupported)
	g.mux.HandleFunc("DELETE /v1/subscriptions/{id}", g.handleSubscriptionsUnsupported)
	g.mux.HandleFunc("GET /v1/alerts/stream", g.handleSubscriptionsUnsupported)
	g.obs = newObserver(g)
	g.mux.Handle("GET /metrics", g.obs.s)
	return g, nil
}

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	g.obs.http.Serve(g.mux, w, r)
}

// memberState is the gateway's judgement of one member.
type memberState int

const (
	stateDown     memberState = iota // never polled OK, or >= downAfter consecutive failures
	stateDegraded                    // recent failures, last known identity still standing
	stateUp
)

func (s memberState) String() string {
	switch s {
	case stateUp:
		return "up"
	case stateDegraded:
		return "degraded"
	default:
		return "down"
	}
}

// member is one shard server and the gateway's view of it.
type member struct {
	url string

	mu       sync.Mutex
	known    bool // at least one successful poll ever
	health   serve.Health
	fails    int // consecutive failures (polls and request path)
	nextPoll time.Time
	lastErr  string
}

func (m *member) state() memberState {
	switch {
	case !m.known || m.fails >= downAfter:
		return stateDown
	case m.fails > 0:
		return stateDegraded
	default:
		return stateUp
	}
}

// recordOK installs a fresh health report and clears the failure streak.
func (m *member) recordOK(h serve.Health) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.known = true
	m.health = h
	m.fails = 0
	m.lastErr = ""
	m.nextPoll = time.Time{}
}

// recordFail notes one failure (poll or request path). Once the member
// is down, its poll schedule backs off exponentially, capped at
// interval << maxBackoffShift — a crashed member must not be hammered,
// but a restarted one must be noticed within a few intervals.
func (m *member) recordFail(msg string, interval time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fails++
	m.lastErr = msg
	if m.fails >= downAfter {
		shift := m.fails - downAfter
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
		m.nextPoll = time.Now().Add(interval << shift)
	}
}

func (m *member) due(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !now.Before(m.nextPoll)
}

// memberView is one member's state snapshot.
type memberView struct {
	URL    string
	State  memberState
	Known  bool
	Health serve.Health
	Err    string
}

func (m *member) view() memberView {
	m.mu.Lock()
	defer m.mu.Unlock()
	return memberView{URL: m.url, State: m.state(), Known: m.known, Health: m.health, Err: m.lastErr}
}

// clusterView is one consistent judgement of the whole member set,
// taken per request. ok means the members form exactly one servable
// partition; otherwise reason says what is wrong.
type clusterView struct {
	ok          bool
	reason      string
	shards      int
	generation  uint64
	fingerprint string
	scheme      string
	owners      []*member // shard index -> member
	members     []memberView
}

// snapshot judges the member table: every member must be live (up or
// degraded — a degraded member's last known identity stands), the
// reported shard count must equal the member count, shard indexes must
// cover 0..N-1 exactly once, and generation, corpus fingerprint and
// partition scheme must agree across the set. Anything else refuses
// service rather than merging answers from different corpora or
// mining generations.
func (g *Gateway) snapshot() clusterView {
	v := clusterView{members: make([]memberView, len(g.members))}
	for i, m := range g.members {
		v.members[i] = m.view()
	}
	for _, mv := range v.members {
		if mv.State == stateDown {
			why := mv.Err
			if why == "" {
				why = "not yet polled"
			}
			v.reason = fmt.Sprintf("member %s is down (%s)", mv.URL, why)
			return v
		}
	}
	first := v.members[0].Health
	if first.Shards != len(g.members) {
		v.reason = fmt.Sprintf("partition has %d shards but the gateway has %d members", first.Shards, len(g.members))
		return v
	}
	owners := make([]*member, first.Shards)
	for i, mv := range v.members {
		h := mv.Health
		switch {
		case h.Shards != first.Shards || h.Scheme != first.Scheme:
			v.reason = fmt.Sprintf("mixed partitions: %s reports %d shards (%q), %s reports %d (%q)",
				v.members[0].URL, first.Shards, first.Scheme, mv.URL, h.Shards, h.Scheme)
			return v
		case h.Fingerprint != first.Fingerprint:
			v.reason = fmt.Sprintf("mixed corpora: %s and %s serve different corpus fingerprints", v.members[0].URL, mv.URL)
			return v
		case h.Generation != first.Generation:
			v.reason = fmt.Sprintf("mixed generations: %s is at %d, %s at %d",
				v.members[0].URL, first.Generation, mv.URL, h.Generation)
			return v
		case h.Shard < 0 || h.Shard >= len(owners):
			v.reason = fmt.Sprintf("member %s reports shard %d outside the %d-shard partition", mv.URL, h.Shard, len(owners))
			return v
		case owners[h.Shard] != nil:
			v.reason = fmt.Sprintf("members %s and %s both serve shard %d", owners[h.Shard].url, mv.URL, h.Shard)
			return v
		}
		owners[h.Shard] = g.members[i]
	}
	v.ok = true
	v.shards = first.Shards
	v.generation = first.Generation
	v.fingerprint = first.Fingerprint
	v.scheme = first.Scheme
	v.owners = owners
	return v
}

// Refresh polls every member once, concurrently, ignoring any down-state
// backoff — the boot-time and test entry point.
func (g *Gateway) Refresh(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range g.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			g.poll(ctx, m)
		}(m)
	}
	wg.Wait()
}

// Run polls the member table every PollInterval until ctx is cancelled.
// Down members are skipped while inside their backoff window.
func (g *Gateway) Run(ctx context.Context) {
	t := time.NewTicker(g.pollEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		var wg sync.WaitGroup
		for _, m := range g.members {
			if !m.due(now) {
				continue
			}
			wg.Add(1)
			go func(m *member) {
				defer wg.Done()
				g.poll(ctx, m)
			}(m)
		}
		wg.Wait()
	}
}

// poll refreshes one member's health from its /v1/healthz.
func (g *Gateway) poll(ctx context.Context, m *member) {
	ctx, cancel := context.WithTimeout(ctx, g.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/v1/healthz", nil)
	if err != nil {
		m.recordFail(err.Error(), g.pollEvery)
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		m.recordFail(err.Error(), g.pollEvery)
		return
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		m.recordFail("reading healthz: "+err.Error(), g.pollEvery)
		return
	}
	if resp.StatusCode != http.StatusOK {
		m.recordFail(fmt.Sprintf("healthz = %d", resp.StatusCode), g.pollEvery)
		return
	}
	var h serve.Health
	if err := json.Unmarshal(body, &h); err != nil {
		m.recordFail("decoding healthz: "+err.Error(), g.pollEvery)
		return
	}
	if h.Shards < 1 {
		// A pre-shard stserve (or something else entirely) answers OK
		// without an identity; the gateway cannot place it in a partition.
		m.recordFail("healthz reports no shard identity", g.pollEvery)
		return
	}
	m.recordOK(h)
}

// do issues one upstream request to a member under the shard timeout,
// recording it in the per-member instruments. A transport failure counts
// against the member's health (the request path notices a dead member
// before the next poll does).
func (g *Gateway) do(ctx context.Context, m *member, method, path, rawQuery string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, g.timeout)
	defer cancel()
	u := m.url + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	g.obs.upstream(m.url).reqs.Inc()
	resp, err := g.client.Do(req)
	if err != nil {
		g.obs.upstream(m.url).errs.Inc()
		m.recordFail(err.Error(), g.pollEvery)
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		g.obs.upstream(m.url).errs.Inc()
		m.recordFail("reading response: "+err.Error(), g.pollEvery)
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

// relay copies an upstream response through verbatim.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		log.Printf("gate: relaying response: %v", err)
	}
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v := g.snapshot()
	members := make([]map[string]any, len(v.members))
	for i, mv := range v.members {
		members[i] = map[string]any{
			"url":        mv.URL,
			"state":      mv.State.String(),
			"shard":      mv.Health.Shard,
			"generation": mv.Health.Generation,
		}
		if mv.Err != "" {
			members[i]["error"] = mv.Err
		}
	}
	if !v.ok {
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":  "unavailable",
			"reason":  v.reason,
			"members": members,
		})
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"generation":  v.generation,
		"fingerprint": v.fingerprint,
		"shards":      v.shards,
		"scheme":      v.scheme,
		"members":     members,
	})
}

func (g *Gateway) handleGeneration(w http.ResponseWriter, r *http.Request) {
	v := g.snapshot()
	if !v.ok {
		serve.WriteError(w, http.StatusServiceUnavailable, v.reason)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"generation": v.generation})
}

// handleStats aggregates the members' /v1/stats into one cluster view:
// corpus-wide facts from shard 0 (every member serves the full corpus,
// so they agree), the cluster identity the gateway enforces, and one
// entry per member. The strict policy applies here too — a member that
// cannot answer fails the whole aggregation.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	v := g.snapshot()
	if !v.ok {
		serve.WriteError(w, http.StatusServiceUnavailable, v.reason)
		return
	}
	type memberStats struct {
		m    *member
		data map[string]any
		err  error
	}
	stats := make([]memberStats, len(v.owners))
	var wg sync.WaitGroup
	for i, m := range v.owners {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			stats[i].m = m
			status, raw, err := g.do(r.Context(), m, http.MethodGet, "/v1/stats", "", nil)
			if err != nil {
				stats[i].err = err
				return
			}
			if status != http.StatusOK {
				stats[i].err = fmt.Errorf("stats = %d", status)
				return
			}
			stats[i].err = json.Unmarshal(raw, &stats[i].data)
		}(i, m)
	}
	wg.Wait()
	for i, ms := range stats {
		if ms.err != nil {
			serve.WriteError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("shard %d (%s): %v", i, ms.m.url, ms.err))
			return
		}
	}
	members := make([]map[string]any, len(stats))
	for i, ms := range stats {
		members[i] = map[string]any{
			"url":      ms.m.url,
			"shard":    i,
			"requests": ms.data["requests"],
			"searches": ms.data["searches"],
		}
	}
	base := stats[0].data
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"docs":       base["docs"],
		"streams":    base["streams"],
		"timeline":   base["timeline"],
		"generation": v.generation,
		"cluster": map[string]any{
			"shards":      v.shards,
			"scheme":      v.scheme,
			"fingerprint": v.fingerprint,
			"generation":  v.generation,
			"members":     members,
		},
		"uptime_seconds": time.Since(g.started).Seconds(),
		"requests":       g.requests.Load(),
		"searches":       g.searches.Load(),
	})
}

// handlePatterns proxies the lookup to the member owning the term,
// routing on stburst.NormalizeTerm: the form the members' pattern
// lookup keys on.
func (g *Gateway) handlePatterns(w http.ResponseWriter, r *http.Request) {
	v := g.snapshot()
	if !v.ok {
		serve.WriteError(w, http.StatusServiceUnavailable, v.reason)
		return
	}
	term := r.PathValue("term")
	owner := v.owners[stburst.TermShard(stburst.NormalizeTerm(term), v.shards)]
	status, body, err := g.do(r.Context(), owner, http.MethodGet,
		"/v1/patterns/"+url.PathEscape(term), r.URL.RawQuery, nil)
	if err != nil {
		serve.WriteError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("shard %d (%s): %v", v.memberShard(owner), owner.url, err))
		return
	}
	relay(w, status, body)
}

// memberShard reports the shard index a member owns in this view (for
// error messages; -1 when absent).
func (v *clusterView) memberShard(m *member) int {
	for i, o := range v.owners {
		if o == m {
			return i
		}
	}
	return -1
}

// handleDocuments refuses writes: shard members serve immutable shard
// bundles (stserve rejects -ingest for them), so there is no write
// surface for the gateway to front.
func (g *Gateway) handleDocuments(w http.ResponseWriter, r *http.Request) {
	serve.WriteError(w, http.StatusForbidden,
		"the gateway is read-only: shard members serve immutable shard bundles; re-mine with stmine -shards to update the cluster")
}

func (g *Gateway) handleSubscriptionsUnsupported(w http.ResponseWriter, r *http.Request) {
	serve.WriteError(w, http.StatusNotImplemented,
		"subscriptions are not supported on a sharded cluster: alert matching runs in the ingest path and shard-local views of a cross-shard predicate would fire partial alerts; register on an unsharded stserve -subscriptions instead")
}
