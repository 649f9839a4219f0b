package gate

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"stburst"
	"stburst/internal/serve"
)

// memberTraffic is a gateway's upstream transport that hands each request
// to the addressed member's handler in-process, counting requests by
// route, bundle fetches by their ?kind=, and the bytes both ways. before,
// when set, runs ahead of each request's dispatch.
type memberTraffic struct {
	members map[string]http.Handler // by URL host
	mu      sync.Mutex
	reqs    map[string]int
	kinds   map[string]int
	bytes   int
	before  func(route, host string)
}

// route names a member request as the counts key it: "POST /v1/search",
// "GET bundle" for a term's pattern bundle, else method and path.
func route(req *http.Request) string {
	if strings.HasSuffix(req.URL.Path, "/bundle") {
		return "GET bundle"
	}
	return req.Method + " " + req.URL.Path
}

func (m *memberTraffic) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := m.members[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no member at %s", req.URL.Host)
	}
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
	}
	if m.before != nil {
		m.before(route(req), req.URL.Host)
	}
	in := httptest.NewRequest(req.Method, req.URL.RequestURI(), bytes.NewReader(body)).WithContext(req.Context())
	in.Header = req.Header
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, in)
	m.mu.Lock()
	m.reqs[route(req)]++
	if route(req) == "GET bundle" {
		m.kinds[req.URL.Query().Get("kind")]++
	}
	m.bytes += len(body) + rec.Body.Len()
	m.mu.Unlock()
	return rec.Result(), nil
}

// reset zeroes the counts.
func (m *memberTraffic) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reqs = map[string]int{}
	m.kinds = map[string]int{}
	m.bytes = 0
}

// bootCounted serves shard i's store as member host "shardI" behind a
// polled gateway whose upstream traffic the returned transport counts.
func bootCounted(t testing.TB, col *stburst.Collection, stores []*stburst.Store) (*Gateway, *memberTraffic) {
	t.Helper()
	traffic := &memberTraffic{members: map[string]http.Handler{}}
	traffic.reset()
	var urls []string
	for i, st := range stores {
		host := fmt.Sprintf("shard%d", i)
		traffic.members[host] = serve.New(col, st, "")
		urls = append(urls, "http://"+host)
	}
	g, err := New(Config{Members: urls, Client: &http.Client{Transport: traffic}})
	if err != nil {
		t.Fatal(err)
	}
	g.Refresh(context.Background())
	traffic.reset()
	return g, traffic
}

// crossShardText returns a query over co-occurring event terms: a home
// term, every term another shard owns, then the first of those again —
// the home term chosen to leave the most foreign terms. It also returns
// the distinct foreign terms.
func crossShardText(t testing.TB, shards int) (string, []string) {
	t.Helper()
	terms := []string{"earthquake", "rescue", "damage", "tremors"}
	var text string
	var most []string
	for _, first := range terms {
		var foreign []string
		for _, tm := range terms {
			if stburst.TermShard(tm, shards) != stburst.TermShard(first, shards) {
				foreign = append(foreign, tm)
			}
		}
		if len(foreign) > len(most) {
			text, most = first+" "+strings.Join(foreign, " ")+" "+foreign[0], foreign
		}
	}
	if len(most) == 0 {
		t.Fatalf("every event term hashes to one of %d shards", shards)
	}
	return text, most
}

// TestGatewayShipsForeignPatterns: a cross-shard query costs one search
// on the home member plus one pattern fetch per distinct foreign term —
// whatever the kind, the filters or repeated tokens — and its page is
// the unsharded store's.
func TestGatewayShipsForeignPatterns(t *testing.T) {
	col := gateCollection(t)
	store, err := col.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("%dshard", shards), func(t *testing.T) {
			g, traffic := bootCounted(t, col, shardStores(t, col, store, shards))
			text, foreign := crossShardText(t, shards)
			for _, q := range []stburst.Query{
				{Text: text, Kind: stburst.KindRegional},
				{Text: text, Kind: stburst.KindAny, K: 50},
				{
					Text:   text,
					Region: &stburst.Rect{MinX: -1, MinY: -1, MaxX: 0.5, MaxY: 0.5},
					Time:   &stburst.Timespan{Start: 4, End: 5},
					K:      50,
				},
			} {
				traffic.reset()
				wantCode, want := oracleSearch(t, store, q)
				code, got := doSearch(t, g, q)
				if code != wantCode || !sameResp(got, want) {
					t.Errorf("%+v: gateway %d %+v, oracle %d %+v", q, code, got, wantCode, want)
				}
				if want.Count == 0 {
					t.Errorf("%+v: the oracle returns no hits; the query does not exercise the join", q)
				}
				wantReqs := map[string]int{"POST /v1/search": 1, "GET bundle": len(foreign)}
				if fmt.Sprint(traffic.reqs) != fmt.Sprint(wantReqs) {
					t.Errorf("%+v: member requests %v, want %v", q, traffic.reqs, wantReqs)
				}
			}
		})
	}
}

// TestGatewayMemberBytesIndependentOfPostings: the member traffic of a
// cross-shard query is patterns and one page, so it stays flat when every
// term's posting list grows eightfold.
func TestGatewayMemberBytesIndependentOfPostings(t *testing.T) {
	var bytesAt, hitsAt [2]int
	for i, copies := range []int{1, 8} {
		col := repeatedGateCollection(t, copies)
		store, err := col.MineStore(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		g, traffic := bootCounted(t, col, shardStores(t, col, store, 2))
		text, foreign := crossShardText(t, 2)
		q := stburst.Query{Text: text, Kind: stburst.KindRegional}
		if code, _ := doSearch(t, g, q); code != http.StatusOK {
			t.Fatalf("copies %d: search = %d", copies, code)
		}
		bytesAt[i] = traffic.bytes
		page, err := store.Query(context.Background(), stburst.Query{Text: foreign[0], Kind: q.Kind, K: stburst.MaxK})
		if err != nil {
			t.Fatal(err)
		}
		hitsAt[i] = len(page.Hits)
	}
	if hitsAt[1] < 4*hitsAt[0] {
		t.Fatalf("posting list grew %d -> %d; the corpus does not scale it", hitsAt[0], hitsAt[1])
	}
	if 4*bytesAt[1] > 5*bytesAt[0] {
		t.Errorf("member bytes %d -> %d as the foreign term's postings grew %d -> %d", bytesAt[0], bytesAt[1], hitsAt[0], hitsAt[1])
	}
}

// TestGatewayRefusesReloadedMember: a member that reloads after the
// gateway's poll — the home member between the fetch and the forward,
// or an owner before its fetch — fails the query with 503 naming the
// generation, never a page mixing two generations.
func TestGatewayRefusesReloadedMember(t *testing.T) {
	col := gateCollection(t)
	store, err := col.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	text, foreign := crossShardText(t, 2)
	home := stburst.TermShard(strings.Fields(text)[0], 2)
	for _, tc := range []struct {
		name   string
		route  string
		reload int // the shard that reloads
	}{
		{"home", "POST /v1/search", home},
		{"owner", "GET bundle", stburst.TermShard(foreign[0], 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stores := shardStores(t, col, store, 2)
			g, traffic := bootCounted(t, col, stores)
			traffic.before = func(route, host string) {
				if route == tc.route && host == fmt.Sprintf("shard%d", tc.reload) {
					st := stores[tc.reload]
					if err := st.Replace(st.Resident()...); err != nil {
						t.Error(err)
					}
				}
			}
			rec := httptest.NewRecorder()
			g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(`{"text":"`+text+`"}`)))
			if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "generation") {
				t.Errorf("search across a reload = %d %s, want 503 naming the generation", rec.Code, rec.Body.String())
			}
		})
	}
}

// TestGatewayRefusesOversizedShipment: a query of a few KB over enough
// foreign terms that their shipped patterns overflow a member's body cap
// gets the gateway's 413 naming the foreign-term count, the forwarded
// bytes and the cap — not the home member's 413, which would blame the
// client's body — and no member search.
func TestGatewayRefusesOversizedShipment(t *testing.T) {
	col := gateCollection(t)
	store, err := col.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stores := shardStores(t, col, store, 2)
	g, traffic := bootCounted(t, col, stores)
	// A term the corpus lacks still ships its owner's stamped bundle of
	// empty members, so enough distinct ones overflow the cap.
	home := stburst.TermShard("earthquake", 2)
	words := []string{"earthquake"}
	for i, shipped := 0, 0; shipped <= serve.MaxBody; i++ {
		w := stburst.NormalizeTerm(fmt.Sprintf("zz%d", i))
		owner := stburst.TermShard(w, 2)
		if owner == home {
			continue
		}
		var b bytes.Buffer
		if err := stores[owner].SaveTerm(&b, w); err != nil {
			t.Fatal(err)
		}
		shipped += base64.StdEncoding.EncodedLen(b.Len())
		words = append(words, w)
	}
	body := `{"text":"` + strings.Join(words, " ") + `","k":3}`
	if len(body) > serve.MaxBody/8 {
		t.Fatalf("the client body is %d bytes; the test needs a small one", len(body))
	}
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
	want := fmt.Sprintf("%d foreign terms", len(words)-1)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), want) || !strings.Contains(rec.Body.String(), fmt.Sprint(serve.MaxBody)) {
		t.Errorf("search over %d foreign terms (%d-byte body) = %d %s, want 413 naming %q and the cap", len(words)-1, len(body), rec.Code, rec.Body.String(), want)
	}
	if n := traffic.reqs["POST /v1/search"]; n != 0 {
		t.Errorf("%d member searches, want none", n)
	}
}
