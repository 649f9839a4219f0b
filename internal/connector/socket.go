package connector

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// The socket's bounds. maxConns caps concurrent client connections: one
// over it is closed at once and counted as an error, so a flood of
// idle peers cannot pin a goroutine and a 64 KiB read buffer each
// without limit. One frame is one line of at most maxLineBytes, the
// tailer's limit; an overlong line closes its connection, because a
// stream that broke its framing cannot be trusted to resynchronize.
const maxConns = 64

// SocketConfig configures a socket source.
type SocketConfig struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:9400". Port 0
	// picks a free port; WaitBound reports the bound address.
	Addr string
}

// SocketSource accepts newline-delimited JSON documents over TCP — the
// `stserve -listen-ingest` connector, modeled on a ZMQ-style subscriber: the
// sender fires documents and never waits for an application-level ack,
// so backpressure is TCP flow control (the reader stops reading while
// a flush blocks) and delivery across a crash is at-most-once. Each
// connection batches by arrival: it flushes at batchDocs and before
// every read from the socket, so a batch is whatever the sender got in
// while the previous one was being ingested, and a lone document
// reaches the store as soon as the sender pauses — no timer, no
// disconnect.
type SocketSource struct {
	cfg  SocketConfig
	sink Sink
	tracker

	bindOnce sync.Once
	bound    net.Addr      // the first listener address Run bound
	ready    chan struct{} // closed once bound is set
}

// NewSocketSource builds a socket source over sink.
func NewSocketSource(cfg SocketConfig, sink Sink) *SocketSource {
	s := &SocketSource{cfg: cfg, sink: sink, ready: make(chan struct{})}
	s.lag.Store(-1) // lag is a tailer notion
	return s
}

func (s *SocketSource) Name() string { return "socket:" + s.cfg.Addr }

// Stats implements Source.
func (s *SocketSource) Stats() SourceStats { return s.snapshot(s.Name()) }

// WaitBound blocks until Run has first bound its listener or ctx is
// done, then reports the bound address. Tests use it with ":0" configs.
func (s *SocketSource) WaitBound(ctx context.Context) (net.Addr, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.ready:
		return s.bound, nil
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
	defer ln.Close()
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	s.bindOnce.Do(func() {
		s.bound = ln.Addr()
		close(s.ready)
	})

	var wg sync.WaitGroup

	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return nil // clean shutdown
			}
			return err
		}
		if s.conns.Load() >= maxConns {
			s.fail(fmt.Sprintf("connection from %s refused: %d connections already open",
				conn.RemoteAddr(), maxConns))
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

// serveConn reads one connection's lines through a batcher. The reader
// never sets mid-stream deadlines — a deadline poke from the shutdown
// watcher is the only thing that interrupts a blocking read, so a slow
// sender can never have a half-read frame torn by a read timeout.
func (s *SocketSource) serveConn(ctx context.Context, conn net.Conn) {
	// Shutdown watcher: an expired deadline unblocks the reader
	// without tearing the connection down, so the drain flush still
	// runs.
	stopWatch := context.AfterFunc(ctx, func() {
		conn.SetReadDeadline(time.Now())
	})
	defer stopWatch()

	where := "connection from " + conn.RemoteAddr().String()
	b := &batcher{sink: s.sink, stats: &s.tracker, where: func() string { return where }}
	cr := &connReader{ctx: ctx, conn: conn, b: b}
	lr := &lineReader{r: bufio.NewReaderSize(cr, 64<<10), max: maxLineBytes}
	for {
		frame, err := readFrame(lr)
		if err != nil {
			if !connEnded(ctx, err) {
				s.fail(fmt.Sprintf("%s: %v", where, err))
			}
			// A refused frame can follow complete ones read in the
			// same chunk; they are still delivered.
			if err := b.flush(ctx); err != nil {
				s.fail(fmt.Sprintf("%s: %v", where, err))
			}
			return
		}
		if len(frame) == 0 {
			continue // blank line
		}
		d, ok := b.decode(frame)
		if !ok {
			continue
		}
		if err := b.add(ctx, d); err != nil {
			s.fail(fmt.Sprintf("%s: %v", where, err))
			return
		}
	}
}

// connEnded reports whether a read error is the connection ending
// rather than failing: the peer hung up, or the shutdown watcher's
// deadline poke fired.
func connEnded(ctx context.Context, err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) ||
		ctx.Err() != nil && errors.Is(err, os.ErrDeadlineExceeded)
}

// connReader is the connection as its frame reader sees it: every read
// from the socket, the only read that can wait on the sender, first
// lands the pending batch. Frames already buffered keep filling the
// batch; once they run out it goes to the store. The flush blocks the
// reader, so TCP flow control still pushes back on the sender.
type connReader struct {
	ctx  context.Context
	conn net.Conn
	b    *batcher
}

func (r *connReader) Read(p []byte) (int, error) {
	if err := r.b.flush(r.ctx); err != nil {
		return 0, err
	}
	return r.conn.Read(p)
}

// readFrame reads one document frame: a line with its terminator
// trimmed, or the final unterminated line once the peer hangs up. A
// line past lr.max ends the connection. The returned slice is only
// valid until the next call.
func readFrame(lr *lineReader) ([]byte, error) {
	line, err := lr.next()
	switch {
	case err == io.EOF && len(lr.line) > 0:
		line, lr.line, err = lr.line, nil, nil // final unterminated line
	case err == errOverlong:
		err = fmt.Errorf("line exceeds limit %d", lr.max)
	}
	return trimNL(line), err
}

func trimNL(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}
