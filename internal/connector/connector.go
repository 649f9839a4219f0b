// Package connector pulls documents from external feeds into the
// WAL-backed ingest path. It is the subsystem behind `stserve -tail`
// and `stserve -listen-ingest`: each feed is a Source that parses its
// transport (a growing JSONL file, a TCP socket carrying one JSON
// document per line) into Doc values and hands batches to a Sink, and a
// Supervisor keeps the sources running, restarting a failed one with
// capped exponential backoff.
//
// A source is configured only by where it reads: a feed path and its
// checkpoint, or a listen address. Batch size, line limit, poll
// interval, connection cap and restart backoff are package constants
// (batchDocs, maxLineBytes, pollInterval, maxConns, backoffBase and
// backoffMax), each documented with the reason for its value.
//
// The package knows nothing about stores, WALs or mining. The Sink —
// implemented by the serve layer on top of Store.Ingest — owns
// validation and durability; its Ingest call does not return until the
// batch is WAL-durable (or the context is cancelled), which is also
// how backpressure reaches the feed: a source blocked in Ingest stops
// reading its file or socket, and TCP flow control or file lag absorbs
// the rest.
//
// Delivery guarantees are per source and documented in DESIGN.md. The
// tailer is exactly-once across crashes when it is the store's only
// writer (byte-offset checkpoint + count-based dedupe on resume); the
// socket source is at-most-once across crashes (documents buffered but
// not yet flushed when the process dies are gone, and the sender is
// never asked to retransmit).
package connector

import (
	"context"
	"sync/atomic"
)

// Doc is one incoming document in source-interchange form: the shape a
// feed line carries before the serve layer resolves stream names and
// token counts into store IDs. Exactly one of Counts, Tokens or Text
// should be set; when several are, Counts wins, then Tokens. Event is
// the synthetic ground-truth label some generated corpora carry; sinks
// ignore it.
type Doc struct {
	Stream string         `json:"stream"`
	Time   int            `json:"time"`
	Text   string         `json:"text,omitempty"`
	Tokens []string       `json:"tokens,omitempty"`
	Counts map[string]int `json:"counts,omitempty"`
	Event  int            `json:"event,omitempty"`
}

// SinkResult reports one durably applied batch.
type SinkResult struct {
	// Applied is how many of the batch's documents were appended to
	// the store (and are WAL-durable).
	Applied int
	// Rejected is how many were dropped by validation — unknown
	// stream, out-of-range time or term count. A bad document is
	// counted and skipped rather than wedging the feed behind it.
	Rejected int
	// Total is the store's document count immediately after this
	// batch applied. The tailer checkpoints it next to the byte
	// offset; the pair is what makes resume dedupe exact.
	Total int
}

// Sink is where sources deliver documents. Ingest blocks until the
// batch is durable — it retries transient store errors internally with
// its own backoff — and returns an error only when ctx is cancelled or
// the sink is permanently unable to accept writes (shutdown). Docs
// reports the store's current document count; sources use it with a
// saved checkpoint to compute how many already-applied documents to
// skip on resume.
type Sink interface {
	Ingest(ctx context.Context, docs []Doc) (SinkResult, error)
	Docs() int
}

// Source is one supervised feed. Run blocks, reading the feed and
// pushing batches into the sink, until ctx is cancelled (return nil or
// ctx.Err(); both mean a clean stop) or the feed fails in a way a
// restart might fix (return the error; the Supervisor backs off and
// calls Run again). Name is a stable identifier used as the metrics
// label and in /v1/stats. Stats is called concurrently with Run.
type Source interface {
	Name() string
	Run(ctx context.Context) error
	Stats() SourceStats
}

// SourceStats is a point-in-time snapshot of one source's counters.
// Gauges that do not apply to a source kind are -1: Lag is bytes not
// yet read by the tailer (-1 for sockets), Conns is active socket
// connections (-1 for the tailer).
type SourceStats struct {
	Name      string `json:"name"`
	Docs      int64  `json:"docs"`
	Errors    int64  `json:"errors"`
	Lag       int64  `json:"lag_bytes"`
	Conns     int64  `json:"connections"`
	LastError string `json:"last_error,omitempty"`
}

// tracker is the shared counter block embedded by both source kinds.
// Everything is atomic so Stats can be read while Run is hot.
type tracker struct {
	docs    atomic.Int64
	errors  atomic.Int64
	lag     atomic.Int64 // bytes; -1 when the source has no lag notion
	conns   atomic.Int64 // active connections; -1 when not applicable
	lastErr atomic.Pointer[string]
}

func (t *tracker) fail(msg string) {
	t.errors.Add(1)
	t.lastErr.Store(&msg)
}

func (t *tracker) snapshot(name string) SourceStats {
	st := SourceStats{
		Name:   name,
		Docs:   t.docs.Load(),
		Errors: t.errors.Load(),
		Lag:    t.lag.Load(),
		Conns:  t.conns.Load(),
	}
	if p := t.lastErr.Load(); p != nil {
		st.LastError = *p
	}
	return st
}
