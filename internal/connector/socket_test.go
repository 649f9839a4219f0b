package connector

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"runtime"
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
	_, addr, stop := startSocket(t, SocketConfig{BatchDocs: 100, FlushInterval: 20 * time.Millisecond}, sink)
	defer stop()
	conn := dial(t, addr)
	defer conn.Close()
	sendLine(t, conn, Doc{Stream: "lima", Time: 1})
	// Far below BatchDocs: only the idle ticker can deliver it.
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

func TestSocketShutdownDrainsBufferedDocs(t *testing.T) {
	sink := &memSink{}
	_, addr, stop := startSocket(t, SocketConfig{BatchDocs: 100, FlushInterval: time.Hour}, sink)
	conn := dial(t, addr)
	defer conn.Close()
	sendLine(t, conn, Doc{Stream: "lima", Time: 1})
	sendLine(t, conn, Doc{Stream: "oslo", Time: 2})
	// Give the reader a moment to buffer both, then shut down: the
	// drain flush must land them even though no flush trigger fired.
	waitFor(t, func() bool { return len(sink.applied()) >= 0 })
	time.Sleep(50 * time.Millisecond)
	stop()
	if got := sink.Docs(); got != 2 {
		t.Fatalf("docs after shutdown drain = %d, want 2", got)
	}
}
