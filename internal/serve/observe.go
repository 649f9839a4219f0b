package serve

import (
	"net/http"
	"net/http/pprof"
	"time"

	"stburst"
	"stburst/internal/metrics"
	"stburst/internal/sub"
)

// observer is the server's metrics surface: the shared per-route request
// instrumentation (metrics.HTTP) and scrape-time gauges over store state.
type observer struct {
	s    *metrics.Registry
	http *metrics.HTTP
	// alertLatency times webhook deliveries (enqueue to 2xx); the
	// dispatcher's OnDelivery hook feeds it.
	alertLatency *metrics.Histogram
}

func newObserver(srv *Server) *observer {
	o := &observer{s: metrics.NewRegistry()}
	o.http = metrics.NewHTTP(o.s, "stserve")
	o.s.NewGaugeFunc("stserve_uptime_seconds",
		"Seconds since the server was wired.",
		func() float64 { return time.Since(srv.started).Seconds() })
	o.s.NewGaugeFunc("stserve_store_generation",
		"Store generation: advances on every swap, reload and ingest.",
		func() float64 { return float64(srv.store.Generation()) })
	o.s.NewGaugeFunc("stserve_collection_docs",
		"Documents resident in the collection (loaded plus ingested).",
		func() float64 { return float64(srv.c.NumDocs()) })
	o.s.NewGaugeFunc("stserve_resident_indexes",
		"Pattern indexes resident in the store.",
		func() float64 { return float64(len(srv.store.Resident())) })
	// Shard identity is immutable for the life of the store, but exposed
	// as gauges so a cluster dashboard can assert every member reports
	// the expected coordinates without scraping /v1/healthz.
	o.s.NewGaugeFunc("stserve_shard_index",
		"This server's shard index within the vocabulary partition (0 when unsharded).",
		func() float64 { return float64(srv.store.ShardInfo().Shard) })
	o.s.NewGaugeFunc("stserve_shard_count",
		"Total shard count of the vocabulary partition (1 when unsharded).",
		func() float64 { return float64(srv.store.ShardInfo().Shards) })
	o.s.NewGaugeFunc("stserve_pending_ingest_docs",
		"Documents buffered in the ingester awaiting a flush.",
		func() float64 {
			if srv.ing == nil {
				return 0
			}
			return float64(srv.ing.Pending())
		})
	o.s.NewGaugeFunc("stserve_ingested_docs_total",
		"Documents accepted through POST /v1/documents.",
		func() float64 { return float64(srv.ingests.Load()) })
	// WAL gauges read a lock-free stats snapshot (Store.WALStats never
	// blocks behind an in-flight ingest) and report 0 with no log
	// attached, so the exposition is stable across deployments.
	walStat := func(f func(stburst.WALStats) float64) func() float64 {
		return func() float64 {
			st, ok := srv.store.WALStats()
			if !ok {
				return 0
			}
			return f(st)
		}
	}
	o.s.NewGaugeFunc("stserve_wal_last_seq",
		"Sequence number of the most recent batch fsync'd to the write-ahead log (0 with no WAL).",
		walStat(func(st stburst.WALStats) float64 { return float64(st.LastSeq) }))
	o.s.NewGaugeFunc("stserve_wal_batches",
		"Batches held across all write-ahead log segments.",
		walStat(func(st stburst.WALStats) float64 { return float64(st.Batches) }))
	o.s.NewGaugeFunc("stserve_wal_segments",
		"Write-ahead log segment files on disk.",
		walStat(func(st stburst.WALStats) float64 { return float64(st.Segments) }))
	o.s.NewGaugeFunc("stserve_wal_bytes",
		"Total size of the write-ahead log in bytes.",
		walStat(func(st stburst.WALStats) float64 { return float64(st.Bytes) }))
	o.s.NewGaugeFunc("stserve_wal_syncs_total",
		"Fsyncs performed by the write-ahead log since it opened.",
		walStat(func(st stburst.WALStats) float64 { return float64(st.Syncs) }))
	// Standing-query metrics are registered whether or not -subscriptions
	// armed the surface (everything reads 0 when disabled), keeping the
	// exposition stable across deployments. The dispatcher/broker reads
	// are nil-safe: EnableSubscriptions runs before traffic, like
	// EnableIngest, but a scrape may land on a server that never arms it.
	o.s.NewGaugeFunc("stserve_subscriptions",
		"Standing queries currently registered.",
		func() float64 { return float64(srv.store.NumSubscriptions()) })
	o.s.NewGaugeFunc("stserve_alerts_matched_total",
		"Alerts the post-ingest matcher has produced.",
		func() float64 { return float64(srv.alertsMatched.Load()) })
	dispStat := func(f func(sub.DispatcherStats) float64) func() float64 {
		return func() float64 {
			d := srv.dispatcher
			if d == nil {
				return 0
			}
			return f(d.Stats())
		}
	}
	o.s.NewGaugeFunc("stserve_alerts_delivered_total",
		"Alerts successfully POSTed to subscriber webhooks.",
		dispStat(func(ds sub.DispatcherStats) float64 { return float64(ds.DeliveredAlerts) }))
	o.s.NewGaugeFunc("stserve_alerts_dropped_total",
		"Alerts abandoned because the delivery queue was full or every retry failed.",
		dispStat(func(ds sub.DispatcherStats) float64 { return float64(ds.DroppedAlerts) }))
	o.s.NewGaugeFunc("stserve_sse_clients",
		"Connected /v1/alerts/stream clients.",
		func() float64 {
			if srv.broker == nil {
				return 0
			}
			return float64(srv.broker.Clients())
		})
	o.s.NewGaugeFunc("stserve_sse_dropped_events_total",
		"SSE events dropped on full client buffers.",
		func() float64 {
			if srv.broker == nil {
				return 0
			}
			return float64(srv.broker.Dropped())
		})
	o.alertLatency = o.s.NewHistogram("stserve_alert_delivery_seconds",
		"Webhook delivery latency from enqueue to 2xx, in seconds.", nil)
	return o
}

// Registry exposes the server's metrics registry — the load generator's
// in-process smoke test and the stserve debug listener both read it.
func (s *Server) Registry() *metrics.Registry { return s.obs.s }

// DebugHandler returns the handler stserve binds to -debug-addr: pprof
// under /debug/pprof/ plus a second /metrics exposition. Profiling is
// deliberately kept off the serving listener — a heap or CPU profile
// holds the process's attention for seconds, and an unauthenticated
// public port must not offer that to arbitrary clients.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", s.obs.s)
	return mux
}
