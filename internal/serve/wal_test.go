package serve

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stburst"
)

// walServer wires a server over a mined store with a write-ahead log
// attached in a temp dir, plus one logged ingest so every WAL stat is
// nonzero.
func walServer(t *testing.T) (*Server, *stburst.WAL) {
	t.Helper()
	ctx := context.Background()
	c := serveCollection(t)
	store, err := c.MineStore(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := stburst.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.AttachWAL(ctx, w); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Ingest(ctx, []stburst.IncomingDocument{
		{Stream: 0, Time: 8, Text: "aftershock damages harbor cranes"},
	}); err != nil {
		t.Fatal(err)
	}
	return New(c, store, ""), w
}

// TestStatsWALSection: /v1/stats carries a wal object — enabled=false
// without a log, full depth/sequence stats with one.
func TestStatsWALSection(t *testing.T) {
	c := serveCollection(t)
	bare := New(c, mineStore(t, c, stburst.KindRegional), "")
	code, body := get(t, bare, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d, want 200", code)
	}
	wal, ok := body["wal"].(map[string]any)
	if !ok {
		t.Fatalf("stats wal field = %v, want an object", body["wal"])
	}
	if wal["enabled"] != false {
		t.Errorf("wal.enabled without a log = %v, want false", wal["enabled"])
	}

	s, w := walServer(t)
	defer w.Close()
	code, body = get(t, s, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d, want 200", code)
	}
	wal, ok = body["wal"].(map[string]any)
	if !ok {
		t.Fatalf("stats wal field = %v, want an object", body["wal"])
	}
	if wal["enabled"] != true {
		t.Errorf("wal.enabled = %v, want true", wal["enabled"])
	}
	if wal["last_seq"] != float64(1) || wal["batches"] != float64(1) {
		t.Errorf("wal sequence stats = %v, want last_seq 1, batches 1 after one ingest", wal)
	}
	if wal["segments"] != float64(1) {
		t.Errorf("wal.segments = %v, want 1", wal["segments"])
	}
	if b, _ := wal["bytes"].(float64); b <= 0 {
		t.Errorf("wal.bytes = %v, want > 0", wal["bytes"])
	}
	if sc, _ := wal["syncs"].(float64); sc < 1 {
		t.Errorf("wal.syncs = %v, want >= 1 under the default fsync policy", wal["syncs"])
	}
}

// TestMetricsWALGauges: the /metrics exposition carries the WAL gauges,
// zero without a log and tracking the log with one.
func TestMetricsWALGauges(t *testing.T) {
	c := serveCollection(t)
	bare := New(c, mineStore(t, c, stburst.KindRegional), "")
	m := scrape(t, bare)
	for _, name := range []string{
		"stserve_wal_last_seq", "stserve_wal_batches", "stserve_wal_segments",
		"stserve_wal_bytes", "stserve_wal_syncs_total",
	} {
		v, ok := m[name]
		if !ok {
			t.Errorf("metric %s missing from the exposition", name)
		} else if v != 0 {
			t.Errorf("%s without a wal = %v, want 0", name, v)
		}
	}

	s, w := walServer(t)
	defer w.Close()
	m = scrape(t, s)
	if m["stserve_wal_last_seq"] != 1 || m["stserve_wal_batches"] != 1 {
		t.Errorf("wal gauges = last_seq %v, batches %v, want 1, 1 after one ingest",
			m["stserve_wal_last_seq"], m["stserve_wal_batches"])
	}
	if m["stserve_wal_segments"] != 1 {
		t.Errorf("stserve_wal_segments = %v, want 1", m["stserve_wal_segments"])
	}
	if m["stserve_wal_bytes"] <= 0 {
		t.Errorf("stserve_wal_bytes = %v, want > 0", m["stserve_wal_bytes"])
	}
	if m["stserve_wal_syncs_total"] < 1 {
		t.Errorf("stserve_wal_syncs_total = %v, want >= 1", m["stserve_wal_syncs_total"])
	}
}

// TestServerReloadRefusedAfterWALReplay: a server whose boot replayed a
// logged batch refuses POST /v1/reload with 409 even though nothing was
// appended after it was built — the bundle on disk predates the batch,
// and installing it would undo AttachWAL's re-mine. Its patterns stay
// those of a from-scratch mine of the recovered collection.
func TestServerReloadRefusedAfterWALReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	bundle := filepath.Join(dir, "corpus.bundle")
	walDir := filepath.Join(dir, "wal")

	// Before the crash: save the bundle, then log a batch that changes
	// every kind's patterns.
	pre := mineStore(t, serveCollection(t))
	if err := pre.SaveFile(bundle); err != nil {
		t.Fatal(err)
	}
	w, err := stburst.OpenWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.AttachWAL(ctx, w); err != nil {
		t.Fatal(err)
	}
	var batch []stburst.IncomingDocument
	for x := 0; x < 3; x++ {
		for tm := 9; tm <= 10; tm++ {
			batch = append(batch, stburst.IncomingDocument{Stream: x, Time: tm, Text: "tsunami warning tsunami sirens"})
		}
	}
	if _, err := pre.Ingest(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot as stserve does: corpus, WAL replay, bundle, attach, server.
	c := serveCollection(t)
	loaded := c.NumDocs()
	if w, err = stburst.OpenWAL(walDir); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := c.ReplayWAL(ctx, w); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(bundle)
	if err != nil {
		t.Fatal(err)
	}
	store, err := stburst.LoadStore(f, c)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	saved := make(map[stburst.Kind]string)
	for _, ix := range store.Resident() {
		saved[ix.PatternKind()] = ix.Fingerprint()
	}
	if _, err := store.AttachWAL(ctx, w); err != nil {
		t.Fatal(err)
	}
	s := New(c, store, bundle)

	code, body := postJSON(t, s, "/v1/reload", "")
	if msg, _ := body["error"].(string); code != http.StatusConflict || !strings.Contains(msg, fmt.Sprintf("held %d", loaded)) {
		t.Errorf("reload after a WAL replay = %d %v, want 409 naming the corpus load's %d documents", code, body, loaded)
	}
	fresh := mineStore(t, c)
	for _, ix := range fresh.Resident() {
		if ix.Fingerprint() == saved[ix.PatternKind()] {
			t.Fatalf("the logged batch leaves the %v patterns unchanged; the test would prove nothing", ix.Kind())
		}
		if got := store.Index(ix.PatternKind()).Fingerprint(); got != ix.Fingerprint() {
			t.Errorf("%v fingerprint after the reload = %.12s, a from-scratch mine gives %.12s", ix.Kind(), got, ix.Fingerprint())
		}
	}
}
