// Package serve implements the stserve HTTP layer: the versioned /v1
// query, ingest and admin API over one collection and one multi-kind
// pattern store, and the observability surface (Prometheus-text GET
// /metrics on the serving listener, pprof on a separate debug handler).
// It lives under internal/ rather than in cmd/stserve so the load
// generator's tests can boot the real server in-process against a
// generated corpus.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stburst"
	"stburst/internal/connector"
	"stburst/internal/geo"
	"stburst/internal/sub"
)

// server is the HTTP query layer over one collection and one multi-kind
// pattern store. The store holds up to one immutable index per pattern
// kind behind an atomic pointer, so any number of requests may run
// concurrently and POST /v1/reload can swap in freshly mined indexes
// without pausing traffic: a request observes either the old resident
// set or the new one, never a torn mix.
//
// The stable contract is the versioned /v1/ JSON API:
//
//	POST /v1/search          structured spatiotemporal query (stburst.Query
//	                         JSON, including "kind": regional |
//	                         combinatorial | temporal | any)
//	GET  /v1/patterns/{term} stored patterns, filterable by ?kind=&region=&from=&to=
//	GET  /v1/patterns/{term}/bundle
//	                         the term's patterns of ?kind= (every resident
//	                         kind when absent or "any") as a bundle, for a
//	                         cluster gateway to ship
//	GET  /v1/indexes         the resident kinds with their sizes and fingerprints
//	POST /v1/documents       live batch ingest (requires -ingest): append
//	                         documents and incrementally re-mine the dirty
//	                         terms under traffic
//	GET  /v1/generation      the store generation, for cache-busting
//	POST /v1/reload          atomically reload the snapshot/bundle from disk
//	                         (the cold-path alternative to /v1/documents,
//	                         refused once documents were appended)
//	POST /v1/subscriptions   register a standing query (requires
//	                         -subscriptions); GET lists, GET/{id} fetches,
//	                         DELETE /{id} removes
//	GET  /v1/alerts/stream   Server-Sent Events feed of every alert batch
//	                         the post-ingest matcher produces
//	GET  /v1/stats           index and traffic statistics
//	GET  /v1/healthz         liveness probe
type Server struct {
	c     *stburst.Collection
	store *stburst.Store
	// ing is the sealable door of the write surface; nil keeps the
	// server read-only and POST /v1/documents answers 403 (the -ingest
	// flag gates it).
	ing *stburst.Ingester
	// snapshotPath is the file POST /v1/reload re-reads; empty disables
	// the route (the server was started without -snapshot).
	snapshotPath string
	// reloadMu serializes reloads: the swap itself is atomic, but two
	// interleaved file reads racing to Replace would make "which file
	// won" arbitrary.
	reloadMu sync.Mutex
	// fpOnce caches the corpus fingerprint reported by /v1/healthz and
	// /v1/stats: the shard bundle's recorded checksum when it carries
	// one, otherwise the collection checksum computed once on first use
	// (a full corpus walk — too hot for a health probe to repeat).
	fpOnce   sync.Once
	fp       string
	started  time.Time
	requests atomic.Int64
	searches atomic.Int64
	reloads  atomic.Int64
	ingests  atomic.Int64 // documents accepted through POST /v1/documents
	// Standing queries: dispatcher and broker stay nil until
	// EnableSubscriptions arms the surface (the -subscriptions flag gates
	// it, like -ingest gates the write surface), so a nil dispatcher
	// seals the routes. alertsMatched counts every alert the post-ingest
	// matcher handed the sink, before delivery fan-out. allowPrivateHooks
	// mirrors the dispatcher's AllowPrivate option so registration can
	// refuse visibly-private webhook targets with a clean 400 instead of
	// letting every delivery fail at dial time.
	allowPrivateHooks bool
	dispatcher        *sub.Dispatcher
	broker            *sub.Broker
	alertsMatched     atomic.Int64
	// connectors is the streaming-source supervisor, nil until
	// EnableConnectors points the stats/metrics surface at it (the
	// -tail / -listen-ingest flags gate it). Lifecycle stays with the
	// caller; the server only reads its stats.
	connectors *connector.Supervisor
	// streams holds every stream name JSON-quoted, indexed by stream:
	// the pattern listing copies them instead of quoting per pattern.
	streams []string
	mux     *http.ServeMux
	obs     *observer
}

// New wires the endpoint handlers. snapshotPath may be empty, in
// which case POST /v1/reload is rejected. The write surface starts
// disabled; EnableIngest arms it.
func New(c *stburst.Collection, store *stburst.Store, snapshotPath string) *Server {
	s := &Server{c: c, store: store, snapshotPath: snapshotPath, started: time.Now(), streams: quoteStreams(c), mux: http.NewServeMux()}
	// The versioned contract.
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/generation", s.handleGeneration)
	s.mux.HandleFunc("GET /v1/indexes", s.handleIndexes)
	s.mux.HandleFunc("POST /v1/reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/documents", s.handleDocuments)
	s.mux.HandleFunc("GET /v1/patterns/{term}", s.handlePatterns)
	s.mux.HandleFunc("GET /v1/patterns/{term}/bundle", s.handleTermBundle)
	s.mux.HandleFunc("POST /v1/search", s.handleSearchV1)
	// The standing-query surface: registered unconditionally so the
	// routes answer a clean 403 (not 404) until -subscriptions arms them.
	s.mux.HandleFunc("POST /v1/subscriptions", s.handleSubscriptionCreate)
	s.mux.HandleFunc("GET /v1/subscriptions", s.handleSubscriptionList)
	s.mux.HandleFunc("GET /v1/subscriptions/{id}", s.handleSubscriptionGet)
	s.mux.HandleFunc("DELETE /v1/subscriptions/{id}", s.handleSubscriptionDelete)
	s.mux.HandleFunc("GET /v1/alerts/stream", s.handleAlertStream)
	// Observability: the Prometheus text exposition shares the serving
	// listener (a scrape is as cheap as a query); pprof deliberately does
	// not — see DebugHandler.
	s.obs = newObserver(s)
	s.mux.Handle("GET /metrics", s.obs.s)
	return s
}

// EnableIngest arms the POST /v1/documents write surface: each request
// is one batch through ing, acknowledged once installed. Call before
// serving traffic.
func (s *Server) EnableIngest(ing *stburst.Ingester) { s.ing = ing }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.obs.http.Serve(s.mux, w, r)
}

// WriteJSON answers status with v as the indented JSON body of the cold
// /v1 routes of stserve and stgate: errors, stats, health, indexes,
// reloads, ingest acks, subscriptions and the gateway's admin routes. The
// two hot read bodies, the pattern listing and the search page, are
// appended byte for byte as this would write them (see body.go), because
// encoding/json's reflection and second indent pass dominated their cost.
// It encodes into a buffer before touching the ResponseWriter, so an
// encoding failure still produces a clean 500 (no header has been written
// yet) instead of a truncated 200 body. Encode and write errors are
// logged — a failed write after the header means the client is gone, and
// the only remaining duty is to record it, never to write again.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encoding %T response: %v", v, err)
		writeEncodingFailure(w)
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody answers status with a complete JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		log.Printf("writing response: %v", err)
	}
}

// writeEncodingFailure answers the 500 a body that could not be encoded
// gets in place of the body.
func writeEncodingFailure(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	if _, err := fmt.Fprintln(w, `{"error":"internal: response encoding failed"}`); err != nil {
		log.Printf("writing encoding-failure response: %v", err)
	}
}

// WriteError answers status with the /v1 error body {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// MaxBody caps the JSON bodies of the query-sized POST routes (search,
// subscriptions). The /v1 surface is unauthenticated and the decoder
// materializes the whole body in memory; a query or a predicate is a
// handful of terms and a rectangle, never megabytes.
const MaxBody = 1 << 20

// DecodeBody strictly decodes a request's JSON body (unknown fields are
// an error) into v, reading at most limit bytes, and reports whether it
// succeeded. On failure it has already answered — 413 when the body
// exceeds the limit, 400 for anything else, naming the body as what —
// and the handler just returns. It is the one capped decoder behind
// every POST route of stserve and stgate.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("%s body exceeds %d bytes", what, tooBig.Limit))
	default:
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("invalid %s body: %v", what, err))
	}
	return false
}

// corpusFingerprint returns the fingerprint identifying the corpus this
// server answers for: the shard bundle's recorded checksum when one was
// mined in, else the boot-time collection checksum, computed lazily and
// cached. On an ingesting server it identifies the corpus as mined —
// the generation, not the fingerprint, tracks live mutation.
func (s *Server) corpusFingerprint() string {
	s.fpOnce.Do(func() {
		if fp := s.store.ShardInfo().CorpusFingerprint; fp != "" {
			s.fp = fp
			return
		}
		s.fp = s.c.Checksum()
	})
	return s.fp
}

// handleHealthz answers the liveness probe. Beyond the legacy
// {"status": "ok"} (still present, so existing probes keep matching),
// the body carries the cheap membership facts a cluster gateway polls:
// the store generation, the corpus fingerprint, and the shard identity.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	si := s.store.ShardInfo()
	WriteJSON(w, http.StatusOK, Health{
		Fingerprint: s.corpusFingerprint(),
		Generation:  s.store.Generation(),
		Scheme:      si.Scheme,
		Shard:       si.Shard,
		Shards:      si.Shards,
		Status:      "ok",
	})
}

// Health is the GET /v1/healthz body, which a cluster gateway decodes to
// place the member in its partition. Fields are declared in the
// alphabetical key order the body has always had.
type Health struct {
	Fingerprint string `json:"fingerprint"`
	Generation  uint64 `json:"generation"`
	Scheme      string `json:"scheme"`
	Shard       int    `json:"shard"`
	Shards      int    `json:"shards"`
	Status      string `json:"status"`
}

// indexJSON is one resident index in /v1/indexes and /v1/stats.
type indexJSON struct {
	Kind        string `json:"kind"`
	Terms       int    `json:"terms"`
	Patterns    int    `json:"patterns"`
	Fingerprint string `json:"fingerprint"`
}

// indexes snapshots the resident set for a response, atomically: one
// generation of the store, never a mix across a concurrent reload.
func (s *Server) indexes() []indexJSON {
	var out []indexJSON
	for _, ix := range s.store.Resident() {
		out = append(out, indexJSON{
			Kind:        ix.PatternKind().String(),
			Terms:       ix.NumTerms(),
			Patterns:    ix.NumPatterns(),
			Fingerprint: ix.Fingerprint(),
		})
	}
	return out
}

func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"indexes": s.indexes()})
}

func (s *Server) handleGeneration(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"generation": s.store.Generation()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// One snapshot of the resident set for the whole response: a reload
	// landing mid-handler must not leave the legacy top-level fields
	// describing a different index generation than the indexes array.
	ixs := s.indexes()
	si := s.store.ShardInfo()
	stats := map[string]any{
		"indexes":    ixs,
		"docs":       s.c.NumDocs(),
		"streams":    s.c.NumStreams(),
		"timeline":   s.c.Timeline(),
		"generation": s.store.Generation(),
		// The corpus fingerprint lives inside the shard object: the legacy
		// top-level "fingerprint" below is the first resident index's
		// pattern fingerprint and must keep meaning exactly that.
		"shard": map[string]any{
			"shard":       si.Shard,
			"shards":      si.Shards,
			"scheme":      si.Scheme,
			"fingerprint": s.corpusFingerprint(),
		},
		"ingest_enabled": s.ing != nil,
		"uptime_seconds": time.Since(s.started).Seconds(),
		"requests":       s.requests.Load(),
		"searches":       s.searches.Load(),
		"reloads":        s.reloads.Load(),
		"ingested_docs":  s.ingests.Load(),
	}
	// Standing queries: the enabled flag distinguishes "surface sealed"
	// from "no one subscribed yet"; delivery counters appear only when a
	// dispatcher exists, mirroring the WAL block below.
	subsStats := map[string]any{
		"enabled":        s.dispatcher != nil,
		"count":          s.store.NumSubscriptions(),
		"matched_alerts": s.alertsMatched.Load(),
	}
	if d := s.dispatcher; d != nil {
		ds := d.Stats()
		subsStats["delivered_alerts"] = ds.DeliveredAlerts
		subsStats["dropped_alerts"] = ds.DroppedAlerts
	}
	if b := s.broker; b != nil {
		subsStats["sse_clients"] = b.Clients()
	}
	stats["subscriptions"] = subsStats
	// Streaming connectors: enabled=false until -tail/-listen-ingest
	// arm the subsystem; per-source counters mirror the
	// stserve_connector_* gauge families.
	stats["connectors"] = s.connectorStats()
	// Durability: absent entirely (enabled=false) without a WAL, so
	// dashboards can tell "no log configured" from "log at sequence 0".
	if wst, ok := s.store.WALStats(); ok {
		stats["wal"] = map[string]any{
			"enabled":  true,
			"last_seq": wst.LastSeq,
			"batches":  wst.Batches,
			"segments": wst.Segments,
			"bytes":    wst.Bytes,
			"syncs":    wst.Syncs,
		}
	} else {
		stats["wal"] = map[string]any{"enabled": false}
	}
	// Legacy top-level fields describe the first resident index, which
	// on a pre-store single-kind deployment is exactly the old payload.
	if len(ixs) > 0 {
		stats["kind"] = ixs[0].Kind
		stats["terms"] = ixs[0].Terms
		stats["patterns"] = ixs[0].Patterns
		stats["fingerprint"] = ixs[0].Fingerprint
	}
	WriteJSON(w, http.StatusOK, stats)
}

// handleReload re-reads the bundle file and atomically replaces the
// store's resident set with its contents. Every member is integrity-
// checked and its search engine warmed before the swap, so a failed or
// corrupt reload leaves the old indexes serving and a successful one
// never exposes a cold engine to traffic. A bundle of another shard
// identity is refused with 409: the store's identity is fixed at boot
// and is what /v1/healthz advertises, so installing a foreign shard's
// terms under it would have a gateway route queries to a member that no
// longer holds them. Reload is for a collection that holds only its
// corpus load: once any document has been appended since (live, or
// replayed from the WAL at boot), Store.Replace refuses the bundle,
// whose patterns do not cover those documents, and the reload answers
// 409 too.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.snapshotPath == "" {
		WriteError(w, http.StatusConflict, "server was started without -snapshot; nothing to reload")
		return
	}
	// Reloading is an admin operation that decodes a multi-gigabyte-class
	// artifact and warms three search engines: on a large corpus it
	// outlives the query-sized WriteTimeout, which would kill the
	// connection before the response is written. Lift the deadline for
	// this request only.
	if err := http.NewResponseController(w).SetWriteDeadline(time.Time{}); err != nil {
		log.Printf("reload: clearing write deadline: %v", err)
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	f, err := os.Open(s.snapshotPath)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "reload: "+err.Error())
		return
	}
	defer f.Close()
	fresh, err := stburst.LoadStore(f, s.c)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "reload: "+err.Error())
		return
	}
	if have, got := s.store.ShardInfo(), fresh.ShardInfo(); got != have {
		WriteError(w, http.StatusConflict, fmt.Sprintf(
			"reload: %s holds %+v but this server was booted as %+v; restart it on the new bundle", s.snapshotPath, got, have))
		return
	}
	ixs := fresh.Resident()
	for _, ix := range ixs {
		ix.Engine() // warm before the swap: no query pays the build
	}
	switch err := s.store.Replace(ixs...); {
	case errors.Is(err, stburst.ErrCollectionAppended):
		WriteError(w, http.StatusConflict, "reload: "+err.Error()+"; restart the server instead")
		return
	case err != nil:
		WriteError(w, http.StatusInternalServerError, "reload: "+err.Error())
		return
	}
	s.reloads.Add(1)
	log.Printf("reloaded %s: %d indexes", s.snapshotPath, len(ixs))
	WriteJSON(w, http.StatusOK, map[string]any{"reloaded": true, "indexes": s.indexes()})
}

// Document is one incoming document of POST /v1/documents: a stream
// name (as in the corpus header), a timestamp on the collection's
// timeline, and the document text.
type Document struct {
	Stream string `json:"stream"`
	Time   int    `json:"time"`
	Text   string `json:"text"`
}

// DocumentsRequest is the POST /v1/documents body.
type DocumentsRequest struct {
	Documents []Document `json:"documents"`
}

// maxIngestBody caps a POST /v1/documents body. The write surface is
// unauthenticated like the rest of /v1, and the decoder materializes
// the whole batch in memory — without a ceiling one request could
// demand gigabytes (the same concern MaxK addresses on the read side).
// 8 MiB comfortably fits thousands of news-sized documents per request;
// larger corpora arrive as multiple batches.
const maxIngestBody = 8 << 20

// handleDocuments answers POST /v1/documents, the live write surface:
// the batch is validated, ingested through the ingester as one batch,
// and acknowledged with 202 Accepted only once it is installed (and
// logged, when a WAL is attached); the response carries the new store
// generation and the batch's dirty-term count. Without -ingest the
// route answers 403: the write surface is an operator opt-in on an
// otherwise read-only, unauthenticated service.
func (s *Server) handleDocuments(w http.ResponseWriter, r *http.Request) {
	if s.ing == nil {
		WriteError(w, http.StatusForbidden, "ingestion is disabled; start stserve with -ingest")
		return
	}
	var req DocumentsRequest
	if !DecodeBody(w, r, maxIngestBody, "documents", &req) {
		return
	}
	if len(req.Documents) == 0 {
		WriteError(w, http.StatusBadRequest, "documents must be a non-empty array")
		return
	}
	docs := make([]stburst.IncomingDocument, len(req.Documents))
	for i, d := range req.Documents {
		x, err := s.c.Resolve(d.Stream, d.Time)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("document %d: %v", i, err))
			return
		}
		docs[i] = stburst.IncomingDocument{Stream: x, Time: d.Time, Text: d.Text}
	}

	// The ingest re-mines the dirty terms and warms fresh engines; on a
	// large corpus that can outlive the query-sized WriteTimeout, which
	// would kill the connection before the response.
	// Lift the deadline for this request only, as the reload path does.
	if err := http.NewResponseController(w).SetWriteDeadline(time.Time{}); err != nil {
		log.Printf("ingest: clearing write deadline: %v", err)
	}
	res, err := s.ing.Add(r.Context(), docs...)
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client gave up before the batch was admitted, so nothing
		// applied and there is no one left to answer.
		log.Printf("ingest cancelled: %v", err)
		return
	case err != nil:
		WriteError(w, http.StatusInternalServerError, "ingest: "+err.Error())
		return
	}
	s.ingests.Add(int64(len(docs)))
	// "flushed" is always true: every ack is an installed batch, and the
	// key stays for clients that check it beside the generation.
	WriteJSON(w, http.StatusAccepted, map[string]any{
		"accepted":    len(docs),
		"dirty_terms": res.DirtyTerms,
		"generation":  res.Generation,
		"flushed":     true,
	})
}

// parseSpan parses the ?from=&to= pair into a timespan. Either bound may
// be omitted; the other defaults to the start or end of the timeline. A
// one-sided bound beyond the timeline is a valid (empty) range, not an
// inversion: only an explicit from > to is rejected, matching what
// POST /v1/search accepts in its time field.
func (s *Server) parseSpan(from, to string) (*stburst.Timespan, error) {
	if from == "" && to == "" {
		return nil, nil
	}
	span := &stburst.Timespan{Start: 0, End: s.c.Timeline() - 1}
	if from != "" {
		v, err := strconv.Atoi(from)
		if err != nil {
			return nil, fmt.Errorf("from must be an integer timestamp, got %q", from)
		}
		span.Start = v
	}
	if to != "" {
		v, err := strconv.Atoi(to)
		if err != nil {
			return nil, fmt.Errorf("to must be an integer timestamp, got %q", to)
		}
		span.End = v
	}
	if span.Start > span.End {
		if from != "" && to != "" {
			return nil, fmt.Errorf("timespan [%d, %d] is inverted", span.Start, span.End)
		}
		// Only the defaulted bound made it inverted (e.g. ?from= past the
		// timeline): degenerate it into a span that overlaps nothing.
		if from != "" {
			span.End = span.Start
		} else {
			span.Start = span.End
		}
	}
	return span, nil
}

// handlePatterns serves GET /v1/patterns/{term}?kind=&region=&from=&to=.
// An absent kind defaults to the sole resident kind when the store holds
// one index and to "any" — every resident kind, patterns concatenated in
// canonical kind order — otherwise. PatternIndex.Patterns decides
// intersection exactly as the search engine's post-filter does, so the
// /v1 routes can never disagree about what "intersects" means.
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	term := r.PathValue("term")
	params := r.URL.Query()
	kind, ok := kindParam(w, params)
	if !ok {
		return
	}
	var region *stburst.Rect
	if raw := params.Get("region"); raw != "" {
		rect, err := geo.ParseRect(raw)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		region = &rect
	}
	span, err := s.parseSpan(params.Get("from"), params.Get("to"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	resident := s.store.Resident() // one snapshot for the whole listing
	if kind != stburst.KindAny {
		match := resident[:0:0]
		for _, ix := range resident {
			if ix.PatternKind() == kind {
				match = append(match, ix)
			}
		}
		if len(match) == 0 {
			WriteError(w, http.StatusNotFound, fmt.Sprintf("kind %v is not resident (have %v)", kind, s.store.Kinds()))
			return
		}
		resident = match
	}
	effective := kind
	if kind == stburst.KindAny && len(resident) == 1 {
		effective = resident[0].PatternKind()
	}
	groups := make([][]stburst.Pattern, 0, len(resident))
	for _, ix := range resident {
		if ps := ix.Patterns(term, region, span); len(ps) > 0 {
			groups = append(groups, ps)
		}
	}
	if len(groups) == 0 {
		WriteError(w, http.StatusNotFound, "no patterns for term "+strconv.Quote(term))
		return
	}
	s.writePatterns(w, term, effective, groups)
}

// kindParam parses the ?kind= of a /v1/patterns route, KindAny when
// absent, answering 400 with ParseKind's message when it names no kind.
func kindParam(w http.ResponseWriter, params url.Values) (stburst.Kind, bool) {
	raw := params.Get("kind")
	if raw == "" {
		return stburst.KindAny, true
	}
	kind, err := stburst.ParseKind(raw)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return 0, false
	}
	return kind, true
}

// writePatterns answers a listing of term's patterns, group by group.
func (s *Server) writePatterns(w http.ResponseWriter, term string, kind stburst.Kind, groups [][]stburst.Pattern) {
	j := newBody()
	j.appendPatterns(s.streams, term, kind.String(), groups)
	j.finish(w, "patterns")
}

// writeSearch answers a search with one page of the ranking, timed from
// start.
func writeSearch(w http.ResponseWriter, q stburst.Query, page stburst.ResultPage, start time.Time) {
	j := newBody()
	j.appendSearch(q, page, float64(time.Since(start).Microseconds())/1000)
	j.finish(w, "search")
}

// SearchRequest is the POST /v1/search body: the stburst.Query JSON
// shape, whose fields it embeds, plus the cluster-only Patterns — the
// bundles a gateway fetched from GET /v1/patterns/{term}/bundle on the
// members owning the query's other terms (see stburst.Store.QueryWith).
// Clients leave Patterns out; the response echoes only the query.
type SearchRequest struct {
	stburst.Query
	Patterns [][]byte `json:"patterns,omitempty"`
}

// handleSearchV1 answers POST /v1/search: the body is a SearchRequest —
// the query, including the kind field routing it to one burstiness model
// or fanning it out with "any", validated by Store.QueryWith via
// Query.Validate, and any shipped patterns. Patterns that do not decode
// or fit the corpus are a 400; patterns of another generation or corpus
// a 503, the cluster's strict policy. The request context is threaded
// through, so a client that disconnects mid-query cancels the retrieval
// loop.
func (s *Server) handleSearchV1(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !DecodeBody(w, r, MaxBody, "query", &req) {
		return
	}
	s.searches.Add(1)
	start := time.Now()
	page, err := s.store.QueryWith(r.Context(), req.Query, req.Patterns...)
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone; there is no one left to answer.
		log.Printf("search cancelled: %v", err)
		return
	case errors.Is(err, stburst.ErrKindNotResident):
		WriteError(w, http.StatusNotFound, err.Error())
		return
	case errors.Is(err, stburst.ErrMismatchedPatterns):
		WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeSearch(w, req.Query, page, start)
}

// handleTermBundle answers GET /v1/patterns/{term}/bundle?kind= with
// Store.SaveTerm's bundle of that kind — every resident kind when kind is
// absent or "any": 200 for every term, an empty member for a kind
// holding none of its patterns; 400 for a kind ParseKind refuses; 404
// only when no kind is resident.
func (s *Server) handleTermBundle(w http.ResponseWriter, r *http.Request) {
	kind, ok := kindParam(w, r.URL.Query())
	if !ok {
		return
	}
	var buf bytes.Buffer
	if err := s.store.SaveTerm(&buf, r.PathValue("term"), kind); err != nil {
		WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := buf.WriteTo(w); err != nil {
		log.Printf("writing term bundle: %v", err)
	}
}
