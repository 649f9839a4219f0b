package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"stburst"
	"stburst/internal/corpusio"
	"stburst/internal/gate"
	"stburst/internal/index"
	"stburst/internal/serve"
)

// gateShards is the partition width, as `stmine -shards 3` writes it.
const gateShards = 3

// gateRead replays searches against one gate.Gateway over three shard
// members. The members are reached through gate.Config.Client with an
// in-memory transport that calls each member's serve.Server directly, so
// no socket is opened.
type gateRead struct {
	e       *env
	m       *mined // the unsharded corpus and store: the parity oracle
	shards  [][]byte
	ops     []gateOp
	p       plan
	gw      *gate.Gateway
	members *memberTransport
	want    []uint64
}

type gateOp struct {
	class int
	req   request
	q     stburst.Query
}

const (
	grScatter2 = iota
	grScatter3
	grForward
)

func (w *gateRead) prepare() error {
	m, err := mineCorpus(w.e.size.Small, w.e.seed)
	if err != nil {
		return err
	}
	w.m = m
	if w.shards, err = shardBundles(m, gateShards); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(w.e.seed))
	voc := newVocabulary(rng, w.e.size.Small, m.store)
	// An op's first term comes from its slice of the distribution; the
	// others are the next terms along a fixed permutation of the slices
	// whose owners make the op's shape: all on the first term's shard for
	// a forward, each on a shard of its own for a scatter.
	add := func(class, n, terms int) {
		pair := stride(n)
		for i := 0; i < n; i++ {
			kind := kindOf(i)
			nt := terms
			if nt == 0 { // forward: one or two terms on one owner
				nt = 1 + i%2
			}
			picked := []string{voc.term(i, n, kind)}
			home := stburst.TermShard(picked[0], gateShards)
			owners := map[int]bool{home: true}
			for len(picked) < nt {
				t := voc.termWhere(1+4*(i*pair%n), 4*n, func(t string) bool {
					shard := stburst.TermShard(t, gateShards)
					return hasPatterns(m.store, t, kind) && t != picked[0] && (shard == home) == (class == grForward) && (class == grForward || !owners[shard])
				})
				owners[stburst.TermShard(t, gateShards)] = true
				picked = append(picked, t)
			}
			q := stburst.Query{Text: strings.Join(picked, " "), Kind: kind, K: 10}
			w.ops = append(w.ops, gateOp{class: class, req: searchRequest(q), q: q})
		}
	}
	add(grScatter2, w.e.size.GateScatter, 2)
	add(grScatter3, w.e.size.GateScatter, 3)
	add(grForward, w.e.size.GateForward, 0)
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })

	w.p = plan{
		Classes: []class{
			{Name: "scatter2", Units: 1}, {Name: "scatter3", Units: 1},
			{Name: "forward", Side: true, Units: 1},
		},
		Unit:      "search",
		MinRounds: w.e.size.GateMinRounds,
	}
	var parts [][]byte
	for _, op := range w.ops {
		w.p.OpClass = append(w.p.OpClass, op.class)
		parts = append(parts, op.req.Body)
	}
	w.p.Fingerprint = fingerprintOps(parts...)
	w.want = make([]uint64, len(w.ops))
	return nil
}

// shardBundles splits the mined bundle's vocabulary into shard bundles,
// each stamped with its coordinates, the partition scheme and the corpus
// checksum: what `stmine -shards n` writes next to its -o path.
func shardBundles(m *mined, n int) ([][]byte, error) {
	col, _, err := corpusio.Load(bytes.NewReader(m.raw))
	if err != nil {
		return nil, err
	}
	snaps, _, err := index.ReadBundle(bytes.NewReader(m.bundle))
	if err != nil {
		return nil, err
	}
	var sets []*index.PatternSet
	for _, sn := range snaps {
		set, err := sn.Remap(col.Dict().Lookup)
		if err != nil {
			return nil, err
		}
		sets = append(sets, set)
	}
	parts, err := index.SplitSets(sets, col.Dict().Term, n)
	if err != nil {
		return nil, err
	}
	checksum := col.Checksum()
	out := make([][]byte, n)
	for i, part := range parts {
		info := index.ShardInfo{Shard: i, Shards: n, Scheme: index.ShardScheme, CorpusFingerprint: checksum}
		var b bytes.Buffer
		if err := index.WriteBundleSharded(&b, part, col.Dict().Term, 0, info); err != nil {
			return nil, err
		}
		out[i] = b.Bytes()
	}
	return out, nil
}

// memberTransport is the gateway's upstream http.RoundTripper: it hands
// each request to the addressed member's serve.Server in this process.
// In the traced pass it records one span per member request.
type memberTransport struct {
	servers map[string]*serve.Server // by URL host
	tr      *tracer
	op      int // the gateway op in flight; the scatter's requests all belong to it
	parent  int
	reqs    atomic.Int64
	bytes   atomic.Int64
}

func (t *memberTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	srv, ok := t.servers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no member at %s", req.URL.Host)
	}
	var body io.Reader
	if req.Body != nil {
		raw, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(raw)
	}
	in := httptest.NewRequest(req.Method, req.URL.RequestURI(), body).WithContext(req.Context())
	in.Header = req.Header
	rec := &recorder{header: make(http.Header)}
	start := time.Now()
	srv.ServeHTTP(rec, in)
	if t.tr != nil {
		t.tr.add("gate.member", t.op, t.parent, start, time.Now())
		t.reqs.Add(1)
		t.bytes.Add(int64(rec.body.Len()))
	}
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return &http.Response{
		Status:        http.StatusText(rec.status),
		StatusCode:    rec.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(&rec.body),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

func (w *gateRead) boot() error {
	w.members = &memberTransport{servers: map[string]*serve.Server{}}
	var urls []string
	for i, bundle := range w.shards {
		c, store, err := bootStore(w.m.raw, bundle)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		host := fmt.Sprintf("shard%d", i)
		w.members.servers[host] = serve.New(c, store, "")
		urls = append(urls, "http://"+host)
	}
	gw, err := gate.New(gate.Config{Members: urls, Client: &http.Client{Transport: w.members}})
	if err != nil {
		return err
	}
	gw.Refresh(context.Background())
	w.gw = gw
	return nil
}

func (w *gateRead) plan() plan { return w.p }

func (w *gateRead) beginRound() error {
	w.members.tr = w.e.tr
	return nil
}

func (w *gateRead) do(i int) (time.Duration, time.Duration, error) {
	op := w.ops[i]
	if w.e.tr != nil {
		w.members.op, w.members.parent = i, w.e.tr.reserve()
	}
	// A scatter runs for 10 ms and more on both CPUs: no stolen timeslice
	// misses it. A forward is over in a tenth of a millisecond.
	var status int
	var body []byte
	var start, end time.Time
	var lost time.Duration
	if op.class == grForward {
		status, body, start, end = call(w.gw, op.req)
	} else {
		_, _, lost = heavy(func() { status, body, start, end = call(w.gw, op.req) })
	}
	d := end.Sub(start)
	if w.e.tr != nil {
		w.e.tr.fill(w.members.parent, "gate.handler", i, -1, start, end)
	}
	if status != http.StatusOK {
		return d, lost, fmt.Errorf("%s: status %d: %s", op.req.Body, status, body)
	}
	got := hashBody(body)
	if w.e.mode == modeWarm {
		// The repo's parity oracle: the gateway's page is byte-equal to
		// the unsharded store's.
		if err := checkSearch(body, w.m.store, op.q); err != nil {
			return d, lost, fmt.Errorf("%s: %w", op.req.Body, err)
		}
		w.want[i] = got
	} else if got != w.want[i] {
		return d, lost, fmt.Errorf("%s: answer differs from the warm-up round's", op.req.Body)
	}
	return d, lost, nil
}

func (w *gateRead) endRound() error { return nil }

func (w *gateRead) layers() (map[string]float64, error) {
	tr := w.e.tr
	scatter := func(op int) bool { return w.ops[op].class != grForward }
	forward := func(op int) bool { return w.ops[op].class == grForward }
	searches := float64(len(tr.perOpRound("gate.handler", false)))
	reqs := make([]request, len(w.ops))
	for i, op := range w.ops {
		reqs[i] = op.req
	}
	w.members.tr = nil
	return map[string]float64{
		"gate.scatter_ms":              tr.layerMS("gate.handler", scatter),
		"gate.forward_ms":              tr.layerMS("gate.handler", forward),
		"gate.self_ms":                 tr.selfMS("gate.handler", "gate.member", true, scatter),
		"gate.member_reqs_per_search":  float64(w.members.reqs.Load()) / searches,
		"gate.member_bytes_per_search": float64(w.members.bytes.Load()) / searches,
		"gate.allocs_per_op":           allocsPerOp(w.gw, reqs),
	}, nil
}

func (w *gateRead) close() {}
