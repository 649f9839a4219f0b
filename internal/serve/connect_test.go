package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"stburst"
	"stburst/internal/connector"
)

// This file tests the streaming-connector glue end to end: the
// IngestSink's validation and durability contract, and — the
// acceptance oracle — a tailing connector killed mid-stream whose
// reboot (WAL replay + checkpoint resume) reproduces a never-crashed
// store checksum-for-checksum.

func TestIngestSinkValidatesAndApplies(t *testing.T) {
	c := serveCollection(t)
	s := mineStore(t, c, stburst.KindRegional)
	sink := NewIngestSink(c, s)
	base := c.NumDocs()

	res, err := sink.Ingest(context.Background(), []connector.Doc{
		{Stream: "lima", Time: 3, Counts: map[string]int{"earthquake": 2, "rescue": 1}},
		{Stream: "atlantis", Time: 3, Text: "no such stream"},
		{Stream: "quito", Time: 99, Text: "time beyond the timeline"},
		{Stream: "tokyo", Time: 0, Tokens: []string{"exports", "surge", "import"}},
	})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Applied != 2 || res.Rejected != 2 {
		t.Fatalf("result = %+v, want 2 applied, 2 rejected", res)
	}
	if res.Total != base+2 || c.NumDocs() != base+2 {
		t.Fatalf("Total = %d, collection = %d, want %d", res.Total, c.NumDocs(), base+2)
	}

	// The counts land exactly: the map a feed line carries must store
	// the same content a direct token append does. The oracle presents
	// each document's tokens pre-sorted because the live Append path
	// interns a document's new terms in sorted order, and Checksum covers
	// the dictionary.
	oracle := serveCollection(t)
	if _, err := oracle.AddTokens(0, 3, []string{"earthquake", "earthquake", "rescue"}); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.AddTokens(2, 0, []string{"exports", "import", "surge"}); err != nil {
		t.Fatal(err)
	}
	if c.Checksum() != oracle.Checksum() {
		t.Fatal("ingested counts did not reproduce AddTokens content")
	}
}

func TestIngestSinkCancelledContextAppliesNothing(t *testing.T) {
	c := serveCollection(t)
	s := mineStore(t, c, stburst.KindRegional)
	sink := NewIngestSink(c, s)
	base := c.NumDocs()
	batch := []connector.Doc{{Stream: "lima", Time: 1, Text: "boat race"}}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sink.Ingest(cancelled, batch); err == nil {
		t.Fatal("Ingest with cancelled context succeeded")
	}
	if got := c.NumDocs(); got != base {
		t.Fatalf("cancelled Ingest left %d docs, want %d (nothing applied)", got, base)
	}
	// The source never advanced past the batch, so it re-sends it; the
	// re-sent batch must land exactly once.
	res, err := sink.Ingest(context.Background(), batch)
	if err != nil {
		t.Fatalf("re-sent Ingest: %v", err)
	}
	if res.Applied != 1 || res.Total != base+1 || c.NumDocs() != base+1 {
		t.Fatalf("re-sent result = %+v with %d docs, want 1 applied and total %d", res, c.NumDocs(), base+1)
	}
}

// TestIngestSinkRetriesUntilContextEnds: a store whose log is closed
// refuses every Ingest before the append, and the sink keeps retrying
// with backoff until its context ends, then returns the context's
// error with nothing applied.
func TestIngestSinkRetriesUntilContextEnds(t *testing.T) {
	c := serveCollection(t)
	s := mineStore(t, c, stburst.KindRegional)
	w, err := stburst.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachWAL(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	base, gen := c.NumDocs(), s.Generation()
	batch := []connector.Doc{{Stream: "lima", Time: 1, Text: "boat race"}}

	const wait = 350 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	start := time.Now()
	_, err = NewIngestSink(c, s).Ingest(ctx, batch)
	if elapsed := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || elapsed < wait {
		t.Fatalf("Ingest on a closed log = %v after %v, want the context's deadline after retrying for %v", err, elapsed, wait)
	}
	if c.NumDocs() != base || s.Generation() != gen {
		t.Fatalf("refused batches left %d docs at generation %d, want %d at %d", c.NumDocs(), s.Generation(), base, gen)
	}
}

// TestIngestSinkRejectsBadCounts: a feed document whose term count is
// negative or past int32 is rejected and counted, its neighbours in the
// batch apply — and a huge but valid count costs a posting, not memory
// proportional to the count.
func TestIngestSinkRejectsBadCounts(t *testing.T) {
	c := serveCollection(t)
	s := mineStore(t, c, stburst.KindRegional)
	sink := NewIngestSink(c, s)
	base := c.NumDocs()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sink.Ingest(context.Background(), []connector.Doc{
		{Stream: "lima", Time: 2, Counts: map[string]int{"flood": 1}},
		{Stream: "lima", Time: 2, Counts: map[string]int{"flood": -5}},
		{Stream: "quito", Time: 2, Counts: map[string]int{"flood": 3_000_000_000}},
		{Stream: "tokyo", Time: 2, Counts: map[string]int{"deluge": 1_000_000_000}},
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Applied != 2 || res.Rejected != 2 || c.NumDocs() != base+2 {
		t.Fatalf("result = %+v with %d docs, want 2 applied, 2 rejected, %d docs", res, c.NumDocs(), base+2)
	}
	if got := c.TermFrequency("deluge", 2, 2); got != 1e9 {
		t.Fatalf("TermFrequency(deluge) = %v, want 1e9", got)
	}
	if got := c.TermFrequency("flood", 0, 2); got != 1 {
		t.Fatalf("TermFrequency(flood, lima) = %v, want 1 (the rejected counts must not land)", got)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("ingesting a count of 1e9 allocated %d bytes, want under 1 MiB", grew)
	}
}

// tailFeedDoc is the JSONL line shape the tail tests write.
func tailFeedLine(stream string, tm int, counts map[string]int) string {
	raw, _ := json.Marshal(connector.Doc{Stream: stream, Time: tm, Counts: counts})
	return string(raw) + "\n"
}

// feedDocs is the feed the tail and socket oracles send: feedLen
// documents that each intern a term of their own.
func feedDocs() (docs []connector.Doc, lines []string) {
	for i := 0; i < feedLen; i++ {
		stream := []string{"lima", "quito", "tokyo"}[i%3]
		counts := map[string]int{"flood": 1 + i%2, "rescue": 1, fmt.Sprintf("term%d", i): 1}
		docs = append(docs, connector.Doc{Stream: stream, Time: i % 12, Counts: counts})
		lines = append(lines, tailFeedLine(stream, i%12, counts))
	}
	return docs, lines
}

// feedLen is two and a half connector batches: a whole feed read at
// once is flushed as 64, 64 and 32 documents.
const feedLen = 160

// crashSink stands in for a process killed at feed document cut: a
// flush that starts at or past the cut never reaches the store, and a
// flush that spans it is logged and applied but never acknowledged, so
// the tailer cannot checkpoint it. Either way the sink then hangs, as
// a dead process would, until the supervisor is stopped; crashed is
// closed as it hangs.
type crashSink struct {
	*IngestSink
	cut, fed int
	crashed  chan struct{}
}

func (k *crashSink) Ingest(ctx context.Context, docs []connector.Doc) (connector.SinkResult, error) {
	if k.fed < k.cut {
		res, err := k.IngestSink.Ingest(ctx, docs)
		if k.fed += len(docs); err != nil || k.fed <= k.cut {
			return res, err
		}
	}
	close(k.crashed)
	<-ctx.Done()
	return connector.SinkResult{}, ctx.Err()
}

// bootTailed assembles one "process incarnation" of a WAL-backed,
// tail-connected store: fresh collection, WAL replay, mine, attach,
// sink, supervised tailer. A positive cut makes the incarnation crash
// at that feed document (see crashSink). It returns the pieces a test
// needs to observe and to crash (cancel + abandon).
type tailedProc struct {
	c       *stburst.Collection
	s       *stburst.Store
	w       *stburst.WAL
	sink    *IngestSink
	sup     *connector.Supervisor
	crashed chan struct{}
}

func bootTailed(t *testing.T, walDir, feed string, cut int) *tailedProc {
	t.Helper()
	ctx := context.Background()
	c := serveCollection(t)
	w, err := stburst.OpenWAL(walDir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if _, err := c.ReplayWAL(ctx, w); err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	s, err := c.MineStore(ctx, nil)
	if err != nil {
		t.Fatalf("MineStore: %v", err)
	}
	if _, err := s.AttachWAL(ctx, w); err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	p := &tailedProc{c: c, s: s, w: w, sink: NewIngestSink(c, s), sup: connector.NewSupervisor(), crashed: make(chan struct{})}
	var sink connector.Sink = p.sink
	if cut > 0 {
		sink = &crashSink{IngestSink: p.sink, cut: cut, crashed: p.crashed}
	}
	p.sup.Add(connector.NewTailSource(connector.TailConfig{Path: feed}, sink))
	p.sup.Start(ctx)
	return p
}

func TestTailCrashRecoveryChecksumOracle(t *testing.T) {
	// The acceptance property: kill -9 during active tailing, reboot,
	// and the recovered store holds every feed document exactly once —
	// asserted by checksum equality against a store that ingested the
	// same feed without ever crashing. cut=k crashes at feed document
	// 16k, so the sweep lands inside the first 64-document flush (logged,
	// not checkpointed), at its end (checkpointed, the next flush never
	// logged) and inside the last flush.
	docs, lines := feedDocs()

	// The never-crashed oracle, fed through the same sink code path.
	oracleC := serveCollection(t)
	oracleS := mineStore(t, oracleC, stburst.KindRegional)
	if _, err := NewIngestSink(oracleC, oracleS).Ingest(context.Background(), docs); err != nil {
		t.Fatalf("oracle ingest: %v", err)
	}
	oracleSum := oracleC.Checksum()
	oracleDocs := oracleC.NumDocs()

	for _, cut := range []int{1, 4, 9} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			walDir := filepath.Join(dir, "wal")
			if err := os.MkdirAll(walDir, 0o755); err != nil {
				t.Fatal(err)
			}
			feed := filepath.Join(dir, "feed.jsonl")
			if err := os.WriteFile(feed, []byte(strings.Join(lines, "")), 0o644); err != nil {
				t.Fatal(err)
			}
			base := serveCollection(t).NumDocs()

			// First incarnation: tail until the sink crashes, then stop
			// the supervisor and abandon everything un-closed. The WAL is
			// never cleanly shut, exactly like kill -9: only what was
			// fsync'd (WAL frames, checkpoint renames) survives.
			p1 := bootTailed(t, walDir, feed, 16*cut)
			select {
			case <-p1.crashed:
			case <-time.After(10 * time.Second):
				t.Fatalf("first incarnation never reached document %d (%d applied)", 16*cut, p1.sink.Docs()-base)
			}
			p1.sup.Stop()

			// Reboot: replay the WAL into a fresh collection, attach,
			// and resume the tailer from its checkpoint.
			p2 := bootTailed(t, walDir, feed, 0)
			deadline := time.Now().Add(10 * time.Second)
			for p2.sink.Docs() < base+feedLen && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			// A moment for a would-be duplicate flush to land before the
			// equality check.
			time.Sleep(20 * time.Millisecond)
			p2.sup.Stop()

			if got := p2.c.NumDocs(); got != oracleDocs {
				t.Fatalf("recovered store has %d docs, oracle %d (lost or duplicated)", got, oracleDocs)
			}
			if p2.c.Checksum() != oracleSum {
				t.Fatal("recovered store checksum diverged from the never-crashed oracle")
			}
			if err := p2.w.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// batchSink records the size of every batch a source hands the store.
type batchSink struct {
	*IngestSink
	mu    sync.Mutex
	sizes []int
}

func (k *batchSink) Ingest(ctx context.Context, docs []connector.Doc) (connector.SinkResult, error) {
	k.mu.Lock()
	k.sizes = append(k.sizes, len(docs))
	k.mu.Unlock()
	return k.IngestSink.Ingest(ctx, docs)
}

// TestSocketIngestOracle: documents sent over the ingest socket leave
// the store exactly as one direct IngestSink.Ingest of the same
// documents does — the same corpus checksum and the same fingerprint
// for every kind — whether they arrive as a burst in one write (cut
// into 64-document batches) or as a drip of single-line writes on an
// open connection, each of which must land on its own before the next
// is sent.
func TestSocketIngestOracle(t *testing.T) {
	ctx := context.Background()
	docs, lines := feedDocs()
	mined := func() (*stburst.Collection, *stburst.Store) {
		c := serveCollection(t)
		s, err := c.MineStore(ctx, nil)
		if err != nil {
			t.Fatalf("MineStore: %v", err)
		}
		return c, s
	}
	oracleC, oracleS := mined()
	kinds := []stburst.Kind{stburst.KindRegional, stburst.KindCombinatorial, stburst.KindTemporal}
	before := make(map[stburst.Kind]string)
	for _, k := range kinds {
		before[k] = oracleS.Index(k).Fingerprint()
	}
	if _, err := NewIngestSink(oracleC, oracleS).Ingest(ctx, docs); err != nil {
		t.Fatalf("oracle ingest: %v", err)
	}
	for _, k := range kinds {
		if oracleS.Index(k).Fingerprint() == before[k] {
			t.Fatalf("the documents leave the %v patterns unchanged; the oracle would prove nothing", k)
		}
	}

	for _, mode := range []string{"burst", "drip"} {
		t.Run(mode, func(t *testing.T) {
			c, s := mined()
			sink := &batchSink{IngestSink: NewIngestSink(c, s)}
			src := connector.NewSocketSource(connector.SocketConfig{Addr: "127.0.0.1:0"}, sink)
			runCtx, cancel := context.WithCancel(ctx)
			defer cancel()
			errc := make(chan error, 1)
			go func() { errc <- src.Run(runCtx) }()
			bctx, bcancel := context.WithTimeout(ctx, 5*time.Second)
			defer bcancel()
			addr, err := src.WaitBound(bctx)
			if err != nil {
				t.Fatalf("listener never bound: %v", err)
			}
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// The source counts a document once its sink call returned,
			// so the refreshed indexes are installed by then; the
			// collection's count moves before that.
			waitDocs := func(n int64) {
				t.Helper()
				deadline := time.Now().Add(10 * time.Second)
				for src.Stats().Docs < n && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if got := src.Stats().Docs; got != n {
					t.Fatalf("source applied %d docs, want %d", got, n)
				}
			}
			if mode == "burst" {
				if _, err := conn.Write([]byte(strings.Join(lines, ""))); err != nil {
					t.Fatal(err)
				}
			} else {
				for i, line := range lines {
					if _, err := conn.Write([]byte(line)); err != nil {
						t.Fatal(err)
					}
					waitDocs(int64(i + 1))
				}
			}
			waitDocs(feedLen)
			cancel()
			if err := <-errc; err != nil {
				t.Fatalf("socket Run: %v", err)
			}

			if st := src.Stats(); st.Docs != feedLen || st.Errors != 0 {
				t.Fatalf("source stats = %+v, want %d docs and no errors", st, feedLen)
			}
			if mode == "burst" {
				if most := slices.Max(sink.sizes); most != 64 {
					t.Errorf("the burst went to the store in batches of %v, want them cut at 64 documents", sink.sizes)
				}
			}
			if c.Checksum() != oracleC.Checksum() {
				t.Fatal("socket-fed store checksum diverged from the direct-ingest oracle")
			}
			for _, k := range kinds {
				if got, want := s.Index(k).Fingerprint(), oracleS.Index(k).Fingerprint(); got != want {
					t.Errorf("%v fingerprint = %s, oracle %s", k, got, want)
				}
			}
		})
	}
}

func TestServerConnectorsStatsAndMetrics(t *testing.T) {
	c := serveCollection(t)
	s := mineStore(t, c, stburst.KindRegional)
	srv := New(c, s, "")

	// Disabled by default: the stats block says so.
	_, body := get(t, srv, "/v1/stats")
	block, ok := body["connectors"].(map[string]any)
	if !ok || block["enabled"] != false {
		t.Fatalf("connectors block before enable = %v", body["connectors"])
	}

	dir := t.TempDir()
	feed := filepath.Join(dir, "feed.jsonl")
	if err := os.WriteFile(feed, []byte(tailFeedLine("lima", 1, map[string]int{"storm": 2})), 0o644); err != nil {
		t.Fatal(err)
	}
	sup := connector.NewSupervisor()
	src := connector.NewTailSource(connector.TailConfig{Path: feed}, NewIngestSink(c, s))
	sup.Add(src)
	srv.EnableConnectors(sup)
	sup.Start(context.Background())
	defer sup.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for src.Stats().Docs < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	_, body = get(t, srv, "/v1/stats")
	block, ok = body["connectors"].(map[string]any)
	if !ok || block["enabled"] != true {
		t.Fatalf("connectors block = %v", body["connectors"])
	}
	sources, ok := block["sources"].([]any)
	if !ok || len(sources) != 1 {
		t.Fatalf("sources = %v, want one entry", block["sources"])
	}
	first := sources[0].(map[string]any)
	if first["name"] != src.Name() || first["state"] != "running" {
		t.Fatalf("source entry = %v", first)
	}
	if int(first["docs"].(float64)) != 1 {
		t.Fatalf("source docs = %v, want 1", first["docs"])
	}
	if _, hasLag := first["lag_bytes"]; !hasLag {
		t.Fatalf("tail source entry missing lag_bytes: %v", first)
	}

	// The per-connector gauge families are on /metrics with the source
	// name as the label.
	m := scrape(t, srv)
	label := `{connector="` + src.Name() + `"}`
	if got, ok := m["stserve_connector_docs_total"+label]; !ok || got != 1 {
		t.Errorf("stserve_connector_docs_total = %v (present=%v), want 1", got, ok)
	}
	for _, name := range []string{
		"stserve_connector_errors_total",
		"stserve_connector_restarts_total",
		"stserve_connector_lag_bytes",
	} {
		if _, ok := m[name+label]; !ok {
			t.Errorf("/metrics missing %s%s", name, label)
		}
	}
}
