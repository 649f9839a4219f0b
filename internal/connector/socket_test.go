package connector

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// startSocket runs a SocketSource on a free port and returns its
// address plus a stop func that cancels and waits for Run.
func startSocket(t *testing.T, cfg SocketConfig, sink Sink) (src *SocketSource, addr string, stop func()) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	src = NewSocketSource(cfg, sink)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- src.Run(ctx) }()
	bctx, bcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer bcancel()
	a, err := src.WaitBound(bctx)
	if err != nil {
		t.Fatalf("listener never bound: %v", err)
	}
	return src, a.String(), func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("socket Run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("socket Run did not return after cancel")
		}
	}
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func sendLine(t *testing.T, conn net.Conn, d Doc) {
	t.Helper()
	raw, _ := json.Marshal(d)
	if _, err := conn.Write(append(raw, '\n')); err != nil {
		t.Fatal(err)
	}
}

func TestSocketLineFraming(t *testing.T) {
	sink := &memSink{}
	_, addr, stop := startSocket(t, SocketConfig{BatchDocs: 2}, sink)
	defer stop()

	conn := dial(t, addr)
	sendLine(t, conn, Doc{Stream: "lima", Time: 1, Tokens: []string{"quake"}})
	sendLine(t, conn, Doc{Stream: "oslo", Time: 2, Tokens: []string{"fire"}})
	waitFor(t, func() bool { return sink.Docs() == 2 }) // batch-size flush

	// A final unterminated line lands via the disconnect flush.
	raw, _ := json.Marshal(Doc{Stream: "lima", Time: 3})
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, func() bool { return sink.Docs() == 3 })
	docs := sink.applied()
	if docs[0].Stream != "lima" || docs[1].Stream != "oslo" || docs[2].Time != 3 {
		t.Fatalf("applied docs = %+v", docs)
	}
}

func TestSocketIdleFlush(t *testing.T) {
	sink := &memSink{}
	_, addr, stop := startSocket(t, SocketConfig{BatchDocs: 100}, sink)
	defer stop()
	conn := dial(t, addr)
	defer conn.Close()
	sendLine(t, conn, Doc{Stream: "lima", Time: 1})
	// Far below BatchDocs, and the connection stays open: only the
	// flush before the next socket read can deliver it.
	waitFor(t, func() bool { return sink.Docs() == 1 })
}

func TestSocketLengthFraming(t *testing.T) {
	sink := &memSink{}
	_, addr, stop := startSocket(t, SocketConfig{Framing: FrameLength, BatchDocs: 1}, sink)
	defer stop()
	conn := dial(t, addr)
	defer conn.Close()

	for i, d := range []Doc{{Stream: "lima", Time: 4}, {Stream: "oslo", Time: 5}} {
		raw, _ := json.Marshal(d)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(raw)))
		if _, err := conn.Write(append(hdr[:], raw...)); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	waitFor(t, func() bool { return sink.Docs() == 2 })
	if docs := sink.applied(); docs[1].Time != 5 {
		t.Fatalf("applied docs = %+v", docs)
	}
}

func TestSocketOversizeFrameClosesConnection(t *testing.T) {
	sink := &memSink{}
	src, addr, stop := startSocket(t, SocketConfig{Framing: FrameLength, MaxFrameBytes: 64}, sink)
	defer stop()
	conn := dial(t, addr)
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30) // absurd declared length
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return src.Stats().Errors >= 1 })
	// The server must have closed its side without reading a payload.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after oversize frame")
	}
}

// TestSocketUnterminatedLineIsBounded: a peer that streams bytes and
// never sends a newline must cost the listener at most one frame of
// memory — the connection is closed and one error counted as soon as
// the line passes MaxFrameBytes, not once the peer relents.
func TestSocketUnterminatedLineIsBounded(t *testing.T) {
	sink := &memSink{}
	src, addr, stop := startSocket(t, SocketConfig{}, sink)
	defer stop()
	const limit = 1 << 20 // the default MaxFrameBytes
	payload := bytes.Repeat([]byte{'x'}, 8*limit)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn := dial(t, addr)
	defer conn.Close()
	go conn.Write(payload) // fails once the server hangs up; that is the point
	waitFor(t, func() bool { return src.Stats().Errors > 0 })
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after an overlong line")
	}
	runtime.ReadMemStats(&after)
	if st := src.Stats(); st.Errors != 1 || sink.Docs() != 0 {
		t.Fatalf("stats = %+v with %d docs, want exactly one error and no documents", st, sink.Docs())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2*limit {
		t.Fatalf("reading an unterminated line allocated %d bytes, want under %d", grew, 2*limit)
	}
}

func TestSocketBadDocCountedGoodDocsFlow(t *testing.T) {
	sink := &memSink{}
	src, addr, stop := startSocket(t, SocketConfig{BatchDocs: 1}, sink)
	defer stop()
	conn := dial(t, addr)
	defer conn.Close()
	if _, err := conn.Write([]byte("{broken json\n")); err != nil {
		t.Fatal(err)
	}
	sendLine(t, conn, Doc{Stream: "lima", Time: 9})
	waitFor(t, func() bool { return sink.Docs() == 1 })
	if st := src.Stats(); st.Errors != 1 || st.LastError == "" {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSocketConnLimit(t *testing.T) {
	sink := &memSink{}
	src, addr, stop := startSocket(t, SocketConfig{MaxConns: 1}, sink)
	defer stop()
	keep := dial(t, addr)
	defer keep.Close()
	waitFor(t, func() bool { return src.Stats().Conns == 1 })

	over := dial(t, addr)
	defer over.Close()
	over.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := over.Read(buf); err == nil {
		t.Fatal("over-limit connection was not closed")
	}
	if st := src.Stats(); st.Errors == 0 {
		t.Fatalf("refused connection not counted: %+v", st)
	}
	// The accepted connection still works.
	sendLine(t, keep, Doc{Stream: "lima", Time: 1})
	waitFor(t, func() bool { return sink.Docs() == 1 })
}

// shutdownSink starts the source's shutdown from inside its first
// Ingest, after that batch has applied.
type shutdownSink struct {
	*memSink
	once   sync.Once
	cancel context.CancelFunc
}

func (k *shutdownSink) Ingest(ctx context.Context, docs []Doc) (SinkResult, error) {
	res, err := k.memSink.Ingest(ctx, docs)
	k.once.Do(k.cancel)
	return res, err
}

// TestSocketShutdownDrainsBufferedDocs: a document decoded before
// shutdown but not yet flushed still lands. Three documents arrive in
// one write with BatchDocs 2; the first batch's sink call starts the
// shutdown, so the third sits in the batch after the run context is
// done, and only the drain flush can deliver it.
func TestSocketShutdownDrainsBufferedDocs(t *testing.T) {
	sink := &memSink{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := NewSocketSource(SocketConfig{Addr: "127.0.0.1:0", BatchDocs: 2}, &shutdownSink{memSink: sink, cancel: cancel})
	errc := make(chan error, 1)
	go func() { errc <- src.Run(ctx) }()
	bctx, bcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer bcancel()
	a, err := src.WaitBound(bctx)
	if err != nil {
		t.Fatalf("listener never bound: %v", err)
	}
	conn := dial(t, a.String())
	defer conn.Close()
	var burst []byte
	for _, d := range []Doc{{Stream: "lima", Time: 1}, {Stream: "oslo", Time: 2}, {Stream: "lima", Time: 3}} {
		raw, _ := json.Marshal(d)
		burst = append(append(burst, raw...), '\n')
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("socket Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("socket Run did not return after shutdown")
	}
	if got := sink.Docs(); got != 3 {
		t.Fatalf("docs after shutdown drain = %d, want 3", got)
	}
}

// TestSocketBurstBatches: a burst written at once is cut at BatchDocs,
// not into one sink call per document — a partial batch goes only when
// the buffered frames run out, which a burst does a handful of times.
func TestSocketBurstBatches(t *testing.T) {
	const n, batch = 640, 64
	sink := &memSink{}
	_, addr, stop := startSocket(t, SocketConfig{BatchDocs: batch}, sink)
	defer stop()
	conn := dial(t, addr)
	defer conn.Close()
	var burst []byte
	for i := range n {
		raw, _ := json.Marshal(Doc{Stream: "lima", Time: i % 48})
		burst = append(append(burst, raw...), '\n')
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.Docs() == n })
	sink.mu.Lock()
	calls := sink.calls
	sink.mu.Unlock()
	if want := (n + batch - 1) / batch; calls < want || calls > 2*want {
		t.Fatalf("%d documents took %d sink calls, want between %d and %d", n, calls, want, 2*want)
	}
}

// socketFramesModel cuts data into frames the way the socket framing
// is specified, without its reader: a line frame is a newline-split
// piece of at most max bytes with its line ending trimmed, a length
// frame is a 4-byte big-endian length and that many bytes. The first
// piece that breaks the limit, and a truncated length frame, end the
// connection.
func socketFramesModel(data []byte, framing Framing, max int) [][]byte {
	var frames [][]byte
	if framing == FrameLine {
		for _, piece := range bytes.SplitAfter(data, []byte("\n")) {
			if len(piece) > max {
				break
			}
			if len(piece) > 0 {
				frames = append(frames, trimNL(piece))
			}
		}
		return frames
	}
	for len(data) >= 4 {
		n := binary.BigEndian.Uint32(data)
		data = data[4:]
		if n > uint32(max) || uint32(len(data)) < n {
			break
		}
		frames = append(frames, data[:n])
		data = data[n:]
	}
	return frames
}

// FuzzSocketFrames sends arbitrary bytes on one connection under both
// framings. The frame reader must return exactly the model's frames —
// so none longer than MaxFrameBytes — and refuse a declared length over
// the limit having consumed only its 4-byte header, before any of the
// payload. The same bytes sent through a real connection (net.Pipe into
// serveConn) must deliver exactly the model frames that decode as
// documents, in order, without a panic.
func FuzzSocketFrames(f *testing.F) {
	lengthFrame := func(payload string) string {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		return string(hdr[:]) + payload
	}
	f.Add([]byte(`{"stream":"lima","time":1}`+"\n\n{broken\r\n"+`{"time":2}`), uint16(64), false)
	f.Add([]byte(strings.Repeat("x", 300)+"\n"+`{"stream":"oslo"}`+"\n"), uint16(40), false)
	f.Add([]byte(lengthFrame(`{"stream":"lima","time":1}`)+lengthFrame("")+lengthFrame("null")), uint16(64), true)
	f.Add([]byte(lengthFrame(`{"stream":"lima"}`)+"\xff\xff\xff\xff"+`{"stream":"oslo"}`), uint16(32), true)
	f.Add([]byte(lengthFrame(`{"stream":"lima"}`)[:7]), uint16(32), true)
	f.Fuzz(func(t *testing.T, data []byte, limit uint16, lengthFramed bool) {
		max := 1 + int(limit)%256
		framing := FrameLine
		if lengthFramed {
			framing = FrameLength
		}
		want := socketFramesModel(data, framing, max)

		src := NewSocketSource(SocketConfig{Framing: framing, MaxFrameBytes: max}, &memSink{})
		in := bytes.NewReader(data)
		lr := &lineReader{r: bufio.NewReaderSize(in, 16), max: max}
		consumed := func() int { return len(data) - in.Len() - lr.r.Buffered() }
		var got [][]byte
		for {
			at := consumed()
			frame, err := src.readFrame(lr)
			if err != nil {
				if lengthFramed && len(data)-at >= 4 && binary.BigEndian.Uint32(data[at:]) > uint32(max) {
					if consumed() != at+4 || !strings.Contains(err.Error(), "exceeds limit") {
						t.Fatalf("declared length over %d at byte %d: err %v after consuming %d bytes, want a refusal after the 4-byte header",
							max, at, err, consumed()-at)
					}
				}
				break
			}
			if len(frame) > max {
				t.Fatalf("decoded a %d-byte frame past the %d-byte limit", len(frame), max)
			}
			got = append(got, bytes.Clone(frame))
		}
		if len(got) != len(want) {
			t.Fatalf("read %d frames, model %d:\n got %q\nwant %q", len(got), len(want), got, want)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d = %q, model %q", i, got[i], want[i])
			}
		}

		var wantDocs []Doc
		for _, frame := range want {
			var d Doc
			if len(frame) > 0 && json.Unmarshal(frame, &d) == nil {
				wantDocs = append(wantDocs, d)
			}
		}
		sink := &memSink{}
		src = NewSocketSource(SocketConfig{Framing: framing, MaxFrameBytes: max, BatchDocs: 3}, sink)
		client, server := net.Pipe()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			client.Write(data) // fails once serveConn hangs up early
			client.Close()
		}()
		src.serveConn(context.Background(), server)
		server.Close()
		<-wrote
		if docs := sink.applied(); !reflect.DeepEqual(docs, wantDocs) && len(docs)+len(wantDocs) > 0 {
			t.Fatalf("connection delivered %+v, want %+v", docs, wantDocs)
		}
	})
}
