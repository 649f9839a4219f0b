package stburst

import (
	"context"
	"errors"
	"sync"
)

// ErrIngesterClosed is returned by Add after Close.
var ErrIngesterClosed = errors.New("stburst: ingester is closed")

// Ingester is the sealable door of the HTTP write surface onto
// Store.Ingest: each Add is one batch — one WAL frame, one dirty-term
// re-mine and one install — applied before Add returns, and Close seals
// the door so a draining server accepts no further batch. Nothing is
// buffered: a nil error means the batch is installed, and WAL-durable
// when a log is attached.
//
// An Ingester is safe for concurrent use. After ErrIngestIncomplete the
// store itself owes the interrupted refresh and repairs it on its next
// ingest; the Ingester keeps no repair state of its own.
type Ingester struct {
	s *Store

	// mu is held across each Add's ingest, so an Add that saw the door
	// open finishes its batch before Close returns.
	mu     sync.Mutex
	closed bool
}

// NewIngester creates an open ingester over the store.
func NewIngester(s *Store) *Ingester {
	return &Ingester{s: s}
}

// Add ingests docs as one batch through Store.Ingest and returns its
// result. An error that precedes the append (invalid batch, cancelled
// context) applies nothing, so the caller may retry the batch verbatim;
// ErrIngestIncomplete means the batch was appended and must not be
// retried.
func (g *Ingester) Add(ctx context.Context, docs ...IncomingDocument) (IngestResult, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return IngestResult{}, ErrIngesterClosed
	}
	return g.s.Ingest(ctx, docs)
}

// Close seals the ingester, waiting for in-flight Adds to finish;
// subsequent Adds return ErrIngesterClosed. A second Close is a no-op.
func (g *Ingester) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}
