package serve

import (
	"context"
	"net/http"
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
