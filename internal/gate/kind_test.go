package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stburst"
	"stburst/internal/serve"
)

// allKinds is every Query.Kind a client can send.
var allKinds = []stburst.Kind{stburst.KindAny, stburst.KindRegional, stburst.KindCombinatorial, stburst.KindTemporal}

// postSearch answers q from h and returns the status and the body up to
// its timing, the one field two servers answering alike may differ in.
func postSearch(t testing.TB, h http.Handler, q stburst.Query) (int, string) {
	t.Helper()
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
	out := rec.Body.String()
	if i := strings.Index(out, `"took_ms"`); i >= 0 {
		out = out[:i]
	}
	return rec.Code, out
}

// TestGatewayKindHeldByNoMember: a cluster of regional-only members
// answers the oracle sweep, crossed with every kind, with the unsharded
// regional store's statuses and bodies. A query of a kind no member
// holds is the store's 404, also when its foreign terms are fetched with
// that kind: the owner ships an empty member of it rather than refusing.
func TestGatewayKindHeldByNoMember(t *testing.T) {
	col := gateCollection(t)
	store, err := col.MineStore(context.Background(), nil, stburst.KindRegional)
	if err != nil {
		t.Fatal(err)
	}
	g, traffic := bootCounted(t, col, shardStores(t, col, store, 2))
	unsharded := serve.New(col, store, "")
	fetched := map[string]int{}
	for qi, base := range oracleQueries(t, store) {
		for _, kind := range allKinds {
			q := base
			q.Kind = kind
			traffic.reset()
			wantCode, _ := oracleSearch(t, store, q)
			code, body := postSearch(t, unsharded, q)
			if code != wantCode {
				t.Fatalf("query %d kind %v: unsharded server %d, Store.Query %d", qi, kind, code, wantCode)
			}
			if gotCode, got := postSearch(t, g, q); gotCode != code || got != body {
				t.Errorf("query %d kind %v (%+v):\ngateway %d %s\nunsharded %d %s", qi, kind, q, gotCode, got, code, body)
			}
			for k, n := range traffic.kinds {
				fetched[k] += n
			}
		}
	}
	for _, kind := range []string{"combinatorial", "temporal"} {
		if fetched[kind] == 0 {
			t.Errorf("no bundle was fetched with kind=%s; the sweep does not scatter a kind no member holds", kind)
		}
	}
}

// TestGatewayShipsQueryKind: a scatter fetches every foreign term's
// bundle with the query's kind, so a single-kind query moves fewer
// member bytes than the same query of every kind, and each page is the
// unsharded store's.
func TestGatewayShipsQueryKind(t *testing.T) {
	col := gateCollection(t)
	store, err := col.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, traffic := bootCounted(t, col, shardStores(t, col, store, 2))
	text, foreign := crossShardText(t, 2)
	var anyBytes int
	for _, kind := range allKinds {
		q := stburst.Query{Text: text, Kind: kind}
		traffic.reset()
		wantCode, want := oracleSearch(t, store, q)
		code, got := doSearch(t, g, q)
		if code != wantCode || !sameResp(got, want) {
			t.Errorf("kind %v: gateway %d %+v, oracle %d %+v", kind, code, got, wantCode, want)
		}
		if want := map[string]int{kind.String(): len(foreign)}; !maps.Equal(traffic.kinds, want) {
			t.Errorf("kind %v: bundle fetches by kind %v, want %v", kind, traffic.kinds, want)
		}
		if kind == stburst.KindAny {
			anyBytes = traffic.bytes
		} else if traffic.bytes >= anyBytes {
			t.Errorf("kind %v: %d member bytes, not below the %d of the same query of every kind", kind, traffic.bytes, anyBytes)
		}
	}
}
