package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"stburst"
)

// BenchmarkShippedQuery: a search over a three-member cluster whose
// foreign terms both other members own, once per kind. The owners'
// bundle writes, the home member's decode, build and rank, and the
// gateway's relay all run in-process; member_B/op is the bytes moved
// between the gateway and its members per search.
func BenchmarkShippedQuery(b *testing.B) {
	col := gateCollection(b)
	store, err := col.MineStore(context.Background(), nil)
	if err != nil {
		b.Fatal(err)
	}
	g, traffic := bootCounted(b, col, shardStores(b, col, store, 3))
	terms := []string{"earthquake", "rescue", "damage", "tremors", "aftershock", "flood", "relief"}
	home := stburst.TermShard(terms[0], 3)
	text := terms[0]
	owners := map[int]bool{}
	for _, term := range terms[1:] {
		if owner := stburst.TermShard(term, 3); owner != home && !owners[owner] {
			owners[owner] = true
			text += " " + term
		}
	}
	if len(owners) != 2 {
		b.Fatalf("the terms %v span %d foreign owners, want 2", terms, len(owners))
	}
	for _, kind := range allKinds {
		body, err := json.Marshal(stburst.Query{Text: text, Kind: kind})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			traffic.reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s = %d %s", body, rec.Code, rec.Body)
				}
			}
			b.ReportMetric(float64(traffic.bytes)/float64(b.N), "member_B/op")
		})
	}
}
