package connector

import (
	"context"
	"encoding/json"
	"fmt"
	"time"
)

// drainTimeout bounds a flush that starts after the run context is
// done: the shutdown drain that lands documents a source had already
// decoded before the sink closes. It bounds only the wait to be
// admitted and the sink's retries: a batch the store has admitted runs
// its re-mine to completion, so a shutdown can also wait out one
// re-mine (about 0.2 s on the xs ladder corpus, 1.2 s on l).
const drainTimeout = 5 * time.Second

// batchDocs caps one flush in both sources. A batch is otherwise
// whatever arrived while the previous one was being ingested, so the
// cap only matters under a backlog, where it bounds how many documents
// one Store.Ingest logs and re-mines at once and how many a crash
// before the acknowledgement leaves to be re-read or lost.
const batchDocs = 64

// batcher is the one decode → batch → Sink.Ingest → count path both
// sources share. A source hands it frames; it decodes each into a Doc
// (counting and skipping a bad one) and flushes at batchDocs documents. The
// source flushes the rest when its feed runs dry — the tailer at
// end-of-file, the socket before any read that could wait — so a batch
// holds whatever arrived while the previous one was being ingested,
// never more than batchDocs, and no timer decides when it goes.
type batcher struct {
	sink  Sink
	stats *tracker
	// where names the feed position for a bad frame's error message.
	where func() string
	// flushed, when set, runs after every durable flush: the tailer
	// checkpoints there.
	flushed func(SinkResult) error
	docs    []Doc
}

// decode parses one frame into a Doc. A frame that is not a document
// is counted through tracker.fail and reported false.
func (b *batcher) decode(frame []byte) (Doc, bool) {
	var d Doc
	if err := json.Unmarshal(frame, &d); err != nil {
		b.stats.fail(fmt.Sprintf("%s: bad document: %v", b.where(), err))
		return Doc{}, false
	}
	return d, true
}

// add appends d to the batch and flushes once it holds batchDocs
// documents.
func (b *batcher) add(ctx context.Context, d Doc) error {
	b.docs = append(b.docs, d)
	if len(b.docs) < batchDocs {
		return nil
	}
	return b.flush(ctx)
}

// flush hands the batch to the sink, counts what it applied and
// rejected, and clears the batch whatever the outcome: the store
// refuses a batch or installs it, so a sink that fails has applied
// nothing, and the source decides whether that is a loss (the socket,
// at-most-once) or a re-read (the tailer, whose checkpoint has not
// moved). Once ctx is done the flush runs under a
// fresh context bounded by drainTimeout instead, so a shutdown lands
// the documents already decoded rather than dropping them.
func (b *batcher) flush(ctx context.Context) error {
	if len(b.docs) == 0 {
		return nil
	}
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
	}
	n := len(b.docs)
	res, err := b.sink.Ingest(ctx, b.docs)
	b.docs = b.docs[:0]
	if err != nil {
		return fmt.Errorf("flush of %d document(s): %w", n, err)
	}
	b.stats.docs.Add(int64(res.Applied))
	if res.Rejected > 0 {
		b.stats.errors.Add(int64(res.Rejected))
		msg := fmt.Sprintf("%d document(s) rejected by the store", res.Rejected)
		b.stats.lastErr.Store(&msg)
	}
	if b.flushed != nil {
		return b.flushed(res)
	}
	return nil
}
