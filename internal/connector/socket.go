package connector

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Framing selects how documents are delimited on a socket connection.
type Framing string

const (
	// FrameLine is newline-delimited JSON: one document per line, the
	// same shape the tail feed uses. The default.
	FrameLine Framing = "line"
	// FrameLength is length-prefixed JSON: a 4-byte big-endian payload
	// length followed by that many bytes of one JSON document.
	FrameLength Framing = "len"
)

// ParseFraming validates an operator-supplied framing name.
func ParseFraming(s string) (Framing, error) {
	switch Framing(s) {
	case FrameLine, FrameLength:
		return Framing(s), nil
	case "":
		return FrameLine, nil
	default:
		return "", fmt.Errorf("unknown framing %q (want %q or %q)", s, FrameLine, FrameLength)
	}
}

// SocketConfig configures a socket source.
type SocketConfig struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:9400". Port 0
	// picks a free port; WaitBound reports the bound address.
	Addr string
	// Framing is line- or length-framed JSONL (default FrameLine).
	Framing Framing
	// MaxConns bounds concurrent client connections (default 64); a
	// connection over the limit is closed immediately and counted as
	// an error.
	MaxConns int
	// MaxFrameBytes bounds one document frame (default 1MiB). An
	// overlong frame closes the connection — in line framing the
	// stream can no longer be trusted to resynchronize, and in length
	// framing the declared length is refused before the payload is
	// read.
	MaxFrameBytes int
	// BatchDocs is the per-connection flush threshold (default 64).
	BatchDocs int
	// FlushInterval bounds how long a partial batch may sit before it
	// is flushed even though the connection has gone quiet (default
	// 500ms).
	FlushInterval time.Duration
	// DrainTimeout bounds the final flush of buffered documents when
	// the source is shut down mid-connection (default 5s).
	DrainTimeout time.Duration
}

func (c *SocketConfig) defaults() {
	if c.Framing == "" {
		c.Framing = FrameLine
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = 1 << 20
	}
	if c.BatchDocs <= 0 {
		c.BatchDocs = 64
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 500 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
}

// SocketSource accepts framed JSONL documents over TCP — the `stserve
// -listen-ingest` connector, modeled on a ZMQ-style subscriber: the
// sender fires documents and never waits for an application-level ack,
// so backpressure is TCP flow control (the reader stops reading while
// a flush blocks) and delivery across a crash is at-most-once. Each
// connection batches independently and flushes at BatchDocs, when the
// batch has sat for FlushInterval, and at disconnect.
type SocketSource struct {
	cfg  SocketConfig
	sink Sink
	tracker

	mu     sync.Mutex
	bound  net.Addr        // listener address once Run has bound it
	notify []chan struct{} // closed once bound becomes non-nil
}

// NewSocketSource builds a socket source over sink.
func NewSocketSource(cfg SocketConfig, sink Sink) *SocketSource {
	cfg.defaults()
	s := &SocketSource{cfg: cfg, sink: sink}
	s.lag.Store(-1) // lag is a tailer notion
	return s
}

func (s *SocketSource) Name() string { return "socket:" + s.cfg.Addr }

// Stats implements Source.
func (s *SocketSource) Stats() SourceStats { return s.snapshot(s.Name()) }

// WaitBound blocks until the listener is bound or ctx is done, then
// reports the bound address. Tests use it with ":0" configs.
func (s *SocketSource) WaitBound(ctx context.Context) (net.Addr, error) {
	s.mu.Lock()
	if s.bound != nil {
		a := s.bound
		s.mu.Unlock()
		return a, nil
	}
	ch := make(chan struct{})
	s.notify = append(s.notify, ch)
	s.mu.Unlock()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-ch:
		s.mu.Lock()
		a := s.bound
		s.mu.Unlock()
		return a, nil
	}
}

// Run listens and serves until ctx is cancelled, then stops accepting,
// waits for in-flight connections to drain their buffered documents,
// and returns nil. A listen failure is returned for the Supervisor to
// back off and retry (the port may be momentarily taken after a fast
// restart).
func (s *SocketSource) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.bound = ln.Addr()
	notify := s.notify
	s.notify = nil
	s.mu.Unlock()
	for _, ch := range notify {
		close(ch)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return nil // clean shutdown
			}
			return err
		}
		if s.conns.Load() >= int64(s.cfg.MaxConns) {
			s.fail(fmt.Sprintf("connection from %s refused: %d connections already open",
				conn.RemoteAddr(), s.cfg.MaxConns))
			conn.Close()
			continue
		}
		s.conns.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.conns.Add(-1)
			defer conn.Close()
			s.serveConn(ctx, conn)
		}()
	}
}

// serveConn reads one connection's frames into a batch and flushes at
// BatchDocs, on a FlushInterval tick, and at end of stream. The batch
// mutex is held across the sink call on purpose: while a flush blocks
// on the store, the reader blocks appending, stops reading the socket,
// and TCP flow control pushes back on the sender. The reader itself
// never sets mid-stream deadlines — a deadline poke from the shutdown
// watcher is the only thing that interrupts a blocking read, so a
// slow sender can never have a half-read frame torn by an idle timer.
func (s *SocketSource) serveConn(ctx context.Context, conn net.Conn) {
	var (
		batchMu sync.Mutex
		batch   []Doc
	)
	flush := func(fctx context.Context) bool {
		batchMu.Lock()
		defer batchMu.Unlock()
		if len(batch) == 0 {
			return true
		}
		if fctx.Err() != nil {
			// Shutdown drain: the run context is gone but the batch
			// holds accepted documents; give the sink a bounded window
			// to land them before the WAL closes.
			var cancel context.CancelFunc
			fctx, cancel = context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
			defer cancel()
		}
		res, err := s.sink.Ingest(fctx, batch)
		if err != nil {
			s.fail(fmt.Sprintf("flush of %d document(s) from %s: %v", len(batch), conn.RemoteAddr(), err))
			return false
		}
		s.docs.Add(int64(res.Applied))
		if res.Rejected > 0 {
			s.errors.Add(int64(res.Rejected))
			msg := fmt.Sprintf("%d document(s) rejected by the store", res.Rejected)
			s.lastErr.Store(&msg)
		}
		batch = batch[:0]
		return true
	}

	// Shutdown watcher: an expired deadline unblocks the reader
	// without tearing the connection down, so the drain flush below
	// still runs.
	stopWatch := context.AfterFunc(ctx, func() {
		conn.SetReadDeadline(time.Now())
	})
	defer stopWatch()

	// Idle flusher: a quiet connection's partial batch reaches the
	// store within FlushInterval.
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		tick := time.NewTicker(s.cfg.FlushInterval)
		defer tick.Stop()
		for {
			select {
			case <-connDone:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				flush(ctx)
			}
		}
	}()

	lr := &lineReader{r: bufio.NewReaderSize(conn, 64<<10), max: s.cfg.MaxFrameBytes}
	for {
		frame, err := s.readFrame(lr)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, net.ErrClosed) && ctx.Err() == nil {
				s.fail(fmt.Sprintf("connection from %s: %v", conn.RemoteAddr(), err))
			}
			flush(ctx)
			return
		}
		if len(frame) == 0 {
			continue // blank line or empty frame
		}
		var d Doc
		if err := json.Unmarshal(frame, &d); err != nil {
			s.fail(fmt.Sprintf("connection from %s: bad document: %v", conn.RemoteAddr(), err))
			continue
		}
		batchMu.Lock()
		batch = append(batch, d)
		full := len(batch) >= s.cfg.BatchDocs
		batchMu.Unlock()
		if full {
			if !flush(ctx) {
				return
			}
		}
	}
}

// readFrame reads one document frame per the configured framing. The
// returned slice is only valid until the next call.
func (s *SocketSource) readFrame(lr *lineReader) ([]byte, error) {
	switch s.cfg.Framing {
	case FrameLength:
		var hdr [4]byte
		if _, err := io.ReadFull(lr.r, hdr[:]); err != nil {
			return nil, err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 {
			return nil, nil
		}
		if n > uint32(s.cfg.MaxFrameBytes) {
			return nil, fmt.Errorf("frame of %d bytes exceeds limit %d", n, s.cfg.MaxFrameBytes)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(lr.r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	default: // FrameLine
		line, err := lr.next()
		switch {
		case err == io.EOF && len(lr.line) > 0:
			line, lr.line, err = lr.line, nil, nil // final unterminated line
		case err == errOverlong:
			err = fmt.Errorf("line exceeds limit %d", s.cfg.MaxFrameBytes)
		}
		return trimNL(line), err
	}
}

func trimNL(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}
