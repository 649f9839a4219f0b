package serve

import (
	"context"
	"time"

	"stburst"
	"stburst/internal/connector"
	"stburst/internal/metrics"
)

// This file is the serve layer's half of the streaming-connector
// subsystem: the durable Sink the sources deliver into, and the
// stats/metrics surface over a running Supervisor. The connector
// package owns transports and supervision; this layer owns per-document
// rejection and the retry loop around Store.Ingest, which owns
// validation and durability (log-before-apply) — exactly the same split
// POST /v1/documents has between its handler and the store.

// IngestSink adapts Store.Ingest into connector.Sink. Ingest converts
// feed documents into store form, rejecting (and counting) ones that
// can never apply — unknown stream, out-of-range time or term count —
// rather than wedging the feed behind them, and then ingests the rest
// as one batch, retrying transient store errors with capped backoff
// until the batch is WAL-durable or ctx is cancelled. The synchronous
// call is the backpressure path: a source blocked here stops reading
// its feed. Store.Ingest refuses a batch or installs it, so a call that
// returns an error (its context ended before the batch was logged)
// applied nothing, and the source's checkpoint never advanced past the
// batch: the next boot re-reads it.
type IngestSink struct {
	c     *stburst.Collection
	store *stburst.Store
}

// The ingest retry backoff doubles from retryBase up to retryMax.
const (
	retryBase = 100 * time.Millisecond
	retryMax  = 5 * time.Second
)

// NewIngestSink builds a sink over a collection and the store mined
// from it. Any number of sources may share one sink: Store.Ingest
// serializes them.
func NewIngestSink(c *stburst.Collection, store *stburst.Store) *IngestSink {
	return &IngestSink{c: c, store: store}
}

// Docs implements connector.Sink: the collection's current document
// count, which sources compare against a checkpoint to dedupe resume.
func (k *IngestSink) Docs() int { return k.c.NumDocs() }

// convert resolves and validates one feed document into store form.
func (k *IngestSink) convert(d connector.Doc) (stburst.IncomingDocument, error) {
	x, err := k.c.Resolve(d.Stream, d.Time)
	if err != nil {
		return stburst.IncomingDocument{}, err
	}
	doc := stburst.IncomingDocument{Stream: x, Time: d.Time, Text: d.Text, Tokens: d.Tokens, Counts: d.Counts}
	return doc, k.c.Check(doc)
}

// Ingest implements connector.Sink. On return with a nil error every
// accepted document is applied to the collection (and fsync'd to the
// WAL when one is attached); SinkResult.Total is the store's document
// count with this batch last, read under the write lock.
func (k *IngestSink) Ingest(ctx context.Context, docs []connector.Doc) (connector.SinkResult, error) {
	res := connector.SinkResult{Total: k.c.NumDocs()}
	valid := make([]stburst.IncomingDocument, 0, len(docs))
	for _, d := range docs {
		doc, err := k.convert(d)
		if err != nil {
			res.Rejected++
			continue
		}
		valid = append(valid, doc)
	}
	if len(valid) == 0 {
		return res, nil
	}
	res.Applied = len(valid)
	for backoff := retryBase; ; backoff = min(2*backoff, retryMax) {
		ires, err := k.store.Ingest(ctx, valid)
		switch {
		case err == nil:
			res.Total = ires.TotalDocs
			return res, nil
		case ctx.Err() != nil:
			return connector.SinkResult{}, err
		}
		select {
		case <-ctx.Done():
			return connector.SinkResult{}, ctx.Err()
		case <-time.After(backoff):
		}
	}
}

// EnableConnectors points the stats and metrics surface at a connector
// supervisor. Call after Add-ing every source and before Start, like
// EnableIngest: the per-source gauge families are registered here, and
// a scrape must never race source registration. The server does not
// own the supervisor's lifecycle — the caller starts it after the WAL
// is attached and stops it before the WAL closes.
func (s *Server) EnableConnectors(sup *connector.Supervisor) {
	s.connectors = sup
	for i := 0; i < sup.NumSources(); i++ {
		st := sup.StatAt(i)
		label := metrics.L("connector", st.Name)
		s.obs.s.NewGaugeFunc("stserve_connector_docs_total",
			"Documents durably ingested through this connector.",
			func() float64 { return float64(sup.StatAt(i).Docs) }, label)
		s.obs.s.NewGaugeFunc("stserve_connector_errors_total",
			"Parse failures, validation rejects and transport errors on this connector.",
			func() float64 { return float64(sup.StatAt(i).Errors) }, label)
		s.obs.s.NewGaugeFunc("stserve_connector_restarts_total",
			"Times the supervisor restarted this connector after a failure.",
			func() float64 { return float64(sup.StatAt(i).Restarts) }, label)
		if st.Lag >= 0 {
			s.obs.s.NewGaugeFunc("stserve_connector_lag_bytes",
				"Feed bytes not yet read by the tailing connector.",
				func() float64 { return float64(sup.StatAt(i).Lag) }, label)
		}
	}
}

// connectorStats assembles the /v1/stats connectors block.
func (s *Server) connectorStats() map[string]any {
	if s.connectors == nil {
		return map[string]any{"enabled": false}
	}
	states := s.connectors.Stats()
	sources := make([]map[string]any, len(states))
	for i, st := range states {
		src := map[string]any{
			"name":     st.Name,
			"state":    st.State,
			"docs":     st.Docs,
			"errors":   st.Errors,
			"restarts": st.Restarts,
		}
		if st.Lag >= 0 {
			src["lag_bytes"] = st.Lag
		}
		if st.Conns >= 0 {
			src["connections"] = st.Conns
		}
		if st.LastError != "" {
			src["last_error"] = st.LastError
		}
		sources[i] = src
	}
	return map[string]any{"enabled": true, "sources": sources}
}
