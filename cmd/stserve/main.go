// Command stserve is the long-running query service of the
// mine-once/serve-many pipeline: it loads a corpus plus a pattern store
// (mining the corpus itself only when no snapshot exists) and answers
// concurrent HTTP queries off immutable in-memory indexes — up to one
// per pattern kind, served side by side from the same process.
//
// Usage:
//
//	stgen -kind topix > corpus.jsonl
//	stmine -all -method all -corpus corpus.jsonl -o corpus.bundle
//	stserve -corpus corpus.jsonl -snapshot corpus.bundle -addr :8080
//
// -snapshot takes the bundle the miner produces: every kind (stmine
// -method all), a single kind, or one shard of a partitioned vocabulary
// (stmine -shards N). A shard bundle turns this process into one
// read-only member of a cluster served through stgate: -ingest and
// -wal-dir are refused, the bundle's recorded corpus fingerprint must
// match -corpus, and the shard coordinates are reported by /v1/healthz,
// /v1/stats and /metrics so the gateway can verify the member set. The
// stable contract is the versioned /v1/ JSON API:
//
//	POST /v1/search          structured spatiotemporal query: the body is
//	                         the stburst.Query JSON shape ({"text": ...,
//	                         "kind": "regional"|"combinatorial"|
//	                         "temporal"|"any", "region": {"min_x": ...},
//	                         "time": {"start": ..., "end": ...}, "k": ...,
//	                         "offset": ..., "min_score": ...}); "any" (or
//	                         an absent kind) fans out to every resident
//	                         index and merges the hits, each tagged with
//	                         the kind that scored it
//	GET  /v1/patterns/{term} the stored patterns of a term (404 when
//	                         none), filterable by ?kind= and
//	                         ?region=minX,minY,maxX,maxY and ?from=&to=
//	GET  /v1/patterns/{term}/bundle
//	                         the term's patterns of every resident kind
//	                         as a bundle, which stgate ships to the member
//	                         answering a search over the term
//	GET  /v1/indexes         the resident kinds with sizes and fingerprints
//	POST /v1/documents       live batch ingest (requires -ingest): the body
//	                         is {"documents": [{"stream": "Japan", "time":
//	                         3, "text": "..."}, ...]}; documents are
//	                         appended under traffic and only the dirty
//	                         terms are re-mined, answered with 202 plus
//	                         the new generation and dirty-term count
//	POST /v1/subscriptions   register a standing query (requires
//	                         -subscriptions): the body names terms plus an
//	                         optional kind/region/time/min_score predicate
//	                         and an optional webhook URL; after every ingest
//	                         the freshly re-mined patterns of the batch's
//	                         dirty terms are intersected against the
//	                         predicate and matches are delivered. GET lists
//	                         the registered queries, GET /{id} fetches one,
//	                         DELETE /{id} removes one
//	GET  /v1/alerts/stream   Server-Sent Events firehose of every alert
//	                         batch the matcher produces (clients filter by
//	                         subscription_id)
//	GET  /v1/generation      the store generation — a counter every swap,
//	                         reload and ingest advances, for cache-busting
//	POST /v1/reload          atomically swap in freshly mined indexes from
//	                         the -snapshot file, without pausing traffic —
//	                         the cold-path alternative to /v1/documents
//	GET  /v1/stats           index size, fingerprint, generation, ingest
//	                         state, uptime, traffic counters
//	GET  /v1/healthz         liveness probe
//	GET  /metrics            Prometheus text exposition: per-route request
//	                         counters and latency histograms, in-flight
//	                         gauge, store generation and ingested documents
//
// Every route is versioned; there are no unversioned aliases.
//
// When -snapshot names a file that does not exist, stserve mines the
// corpus (-method selects the pattern kind, "all" mines all three in one
// pass; -parallel the worker count) and writes the bundle there, so the
// next boot skips mining entirely.
//
// -ingest arms the write surface. Each POST /v1/documents request is one
// batch: it is appended to the in-memory collection and only the dirty
// terms are incrementally re-mined, hot-swapping the refreshed indexes
// under live queries, before the 202 reports the resulting generation.
// The -snapshot file on disk is not rewritten by ingestion; POST
// /v1/reload therefore reverts to the snapshot's indexes (the appended
// documents survive in memory) until the process is restarted or the
// file is re-mined.
//
// -wal-dir arms crash durability for ingestion: every accepted batch is
// framed, checksummed and (under -fsync always, the default) fsync'd to
// a write-ahead log in that directory before it is applied, and on the
// next boot the log is replayed through the same deterministic append
// path — a kill -9 mid-ingest loses nothing that was acknowledged. A
// successful snapshot save rotates the log's segments. -fsync never
// trades that guarantee for speed: the OS flushes when it pleases, and
// a crash may lose acknowledged batches. -wal-prune-interval re-saves
// the -snapshot bundle on a timer and absorbs the sealed segments into
// the -corpus file after every save, so the log stays bounded under
// sustained ingestion.
//
// Streaming connectors pull documents in without any HTTP client.
// -tail follows a growing JSONL feed file (the stgen -follow format:
// an optional header line, then one document per line), resuming after
// a restart from an fsync'd checkpoint next to the feed so no document
// is lost or applied twice; -listen-ingest accepts line- or
// length-framed JSONL documents over TCP (-listen-framing picks the
// framing). Both deliver straight into the same Store.Ingest → WAL →
// dirty-term re-mine path POST /v1/documents ingests through, are
// supervised with capped exponential backoff, and report per-connector
// counters on /metrics and a connectors block on /v1/stats. On shutdown
// the socket source drains its buffered batches before the WAL closes;
// a tailed batch cut off mid-ingest is simply re-read on the next boot.
//
// -debug-addr starts a second listener with net/http/pprof under
// /debug/pprof/ (plus another /metrics exposition). Profiling never
// shares the serving listener: the /v1 surface is unauthenticated, and a
// CPU profile pins the process for seconds — operators opt in on a
// loopback or firewalled port instead.
//
// stserve shuts down gracefully: SIGINT or SIGTERM stops accepting new
// connections and drains in-flight requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stburst"
	"stburst/internal/connector"
	"stburst/internal/serve"
	"stburst/internal/sub"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		debugAddr     = flag.String("debug-addr", "", "optional second listener with /debug/pprof/ and /metrics (keep it loopback or firewalled)")
		corpus        = flag.String("corpus", "", "JSONL corpus path (required)")
		snapshot      = flag.String("snapshot", "", "pattern bundle path (loaded if present, written after mining otherwise)")
		method        = flag.String("method", "stlocal", "miner when no snapshot exists: stlocal, stcomb, tb or all")
		parallel      = flag.Int("parallel", 0, "mining workers (<1 = one per CPU)")
		ingest        = flag.Bool("ingest", false, "enable the POST /v1/documents write surface")
		subscriptions = flag.Bool("subscriptions", false, "enable the /v1/subscriptions standing-query surface and the /v1/alerts/stream SSE feed")
		allowPrivate  = flag.Bool("webhook-allow-private", false, "permit webhook deliveries to loopback, private-range and link-local addresses (off by default: SSRF guard)")
		maxSubs       = flag.Int("max-subscriptions", 0, "cap on registered subscriptions; creates past it answer 429 (0 = default 65536)")
		walDir        = flag.String("wal-dir", "", "write-ahead log directory: log every ingest batch before applying it and replay the log on boot")
		fsync         = flag.String("fsync", "always", "WAL fsync policy: always (acknowledged = durable) or never (faster, crash may lose batches)")
		walPruneIvl   = flag.Duration("wal-prune-interval", 0, "re-save the -snapshot bundle this often and absorb sealed WAL segments into the -corpus file after each save, so the log stays bounded (requires -wal-dir and -snapshot)")
		tailPath      = flag.String("tail", "", "follow this JSONL feed file, ingesting appended documents as they arrive (resumes from a checkpoint)")
		tailCkpt      = flag.String("tail-checkpoint", "", "tailer checkpoint file (default: <tail path>.checkpoint)")
		listenIngest  = flag.String("listen-ingest", "", "accept framed JSONL documents over TCP on this address and ingest them")
		listenFraming = flag.String("listen-framing", "line", "ingest socket framing: line (newline-delimited) or len (4-byte big-endian length prefix)")
	)
	flag.Parse()
	log.SetPrefix("stserve: ")
	log.SetFlags(0)
	if *corpus == "" {
		log.Fatal("-corpus is required")
	}
	if *walPruneIvl > 0 {
		if *walDir == "" {
			log.Fatal("-wal-prune-interval requires -wal-dir: there is no log to prune")
		}
		if *snapshot == "" {
			log.Fatal("-wal-prune-interval requires -snapshot: there is nowhere to save the bundle")
		}
	}
	var socketFraming connector.Framing
	if *listenIngest != "" {
		var err error
		if socketFraming, err = connector.ParseFraming(*listenFraming); err != nil {
			log.Fatal(err)
		}
	}
	connectorsEnabled := *tailPath != "" || *listenIngest != ""
	var walSync stburst.WALSync
	switch *fsync {
	case "always":
		walSync = stburst.WALSyncAlways
	case "never":
		walSync = stburst.WALSyncNever
	default:
		log.Fatalf("-fsync must be \"always\" or \"never\", got %q", *fsync)
	}

	f, err := os.Open(*corpus)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	c, err := stburst.LoadCorpus(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("corpus %s: %d docs, %d streams, %d timestamps (loaded in %v)",
		*corpus, c.NumDocs(), c.NumStreams(), c.Timeline(), time.Since(start).Round(time.Millisecond))

	// Recovery phase 1: replay logged batches into the collection BEFORE
	// indexes load or mine — a logged batch may have interned vocabulary
	// the snapshot references, and mining must see the recovered corpus.
	var wal *stburst.WAL
	if *walDir != "" {
		start = time.Now()
		walOpts := []stburst.WALOption{stburst.WithWALSync(walSync)}
		if *walPruneIvl > 0 {
			walOpts = append(walOpts, stburst.WithWALPrune(*corpus))
		}
		wal, err = stburst.OpenWAL(*walDir, walOpts...)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := c.ReplayWAL(context.Background(), wal)
		if err != nil {
			log.Fatal(err)
		}
		if rep.Batches > 0 {
			log.Printf("wal %s: replayed %d batches (%d docs) in %v",
				*walDir, rep.Batches, rep.Docs, time.Since(start).Round(time.Millisecond))
		} else {
			log.Printf("wal %s: nothing to replay", *walDir)
		}
	}

	store, err := loadOrMine(c, *snapshot, *method, *parallel)
	if err != nil {
		log.Fatal(err)
	}
	if si := store.ShardInfo(); si.Sharded() {
		// A shard bundle holds one slice of a partitioned vocabulary; this
		// process is one member of a cluster behind stgate. Writes are
		// refused — an ingested document's terms would hash across every
		// shard, and a lone member re-mining its slice would fork the
		// set's shared generation — and the bundle must have been mined
		// from exactly this corpus, or the shard would answer with foreign
		// document IDs.
		if *ingest || *walDir != "" || connectorsEnabled {
			log.Fatalf("snapshot %s is shard %d/%d: a shard member is read-only (-ingest/-wal-dir/-tail/-listen-ingest are not allowed; ingest into an unsharded deployment and re-run stmine -shards)",
				*snapshot, si.Shard, si.Shards)
		}
		if si.CorpusFingerprint != "" && si.CorpusFingerprint != c.Checksum() {
			log.Fatalf("snapshot %s was mined from a different corpus (bundle fingerprint %.12s..., -corpus %.12s...)",
				*snapshot, si.CorpusFingerprint, c.Checksum())
		}
		log.Printf("serving shard %d/%d (%s, corpus fingerprint %.12s...)",
			si.Shard, si.Shards, si.Scheme, si.CorpusFingerprint)
	}
	start = time.Now()
	for _, kind := range store.Kinds() {
		ix := store.Index(kind)
		ix.Engine() // warm the cached search engines before accepting traffic
		log.Printf("index %s: %d terms, %d patterns, fingerprint %.12s...",
			kind, ix.NumTerms(), ix.NumPatterns(), ix.Fingerprint())
	}
	log.Printf("search engines built in %v", time.Since(start).Round(time.Millisecond))

	handler := serve.New(c, store, *snapshot)
	if *ingest || connectorsEnabled || wal != nil {
		// Every write path (HTTP ingest, streaming connectors, WAL
		// attach) re-mines dirty terms; give it the same worker budget
		// mining used — stores loaded from a snapshot have no recorded
		// options, so set them explicitly either way.
		store.SetMineOptions(stburst.NewMineOptions(stburst.WithParallelism(*parallel)))
	}
	var ing *stburst.Ingester
	if *ingest {
		ing = stburst.NewIngester(store)
		handler.EnableIngest(ing)
		log.Printf("live ingestion enabled")
	}
	if *subscriptions {
		// Bundles persist registered subscriptions; a loaded snapshot may
		// already carry standing queries from a previous run.
		store.SetSubscriptionLimit(*maxSubs)
		handler.EnableSubscriptions(sub.DispatcherOptions{AllowPrivate: *allowPrivate})
		if *allowPrivate {
			log.Printf("webhook SSRF guard disabled (-webhook-allow-private): deliveries to private addresses permitted")
		}
		if !*ingest {
			log.Printf("subscriptions enabled (%d registered) — note: without -ingest nothing re-mines, so alerts never fire", store.NumSubscriptions())
		} else {
			log.Printf("subscriptions enabled (%d registered)", store.NumSubscriptions())
		}
	}

	// Streaming connectors deliver through one sink into the same
	// Store.Ingest → WAL → dirty-term re-mine path as POST /v1/documents;
	// the synchronous call is the backpressure path. Built and registered
	// before traffic so metric scrapes never race source registration;
	// started only after the WAL is attached so the first tailed batch is
	// already durable.
	var sup *connector.Supervisor
	if connectorsEnabled {
		sup = connector.NewSupervisor(connector.SupervisorConfig{Logf: log.Printf})
		sink := serve.NewIngestSink(c, store)
		if *tailPath != "" {
			cfg := connector.TailConfig{Path: *tailPath, CheckpointPath: *tailCkpt}
			src := connector.NewTailSource(cfg, sink)
			sup.Add(src)
			ckpt := *tailCkpt
			if ckpt == "" {
				ckpt = *tailPath + ".checkpoint"
			}
			log.Printf("connector: tailing %s (checkpoint %s)", *tailPath, ckpt)
		}
		if *listenIngest != "" {
			cfg := connector.SocketConfig{Addr: *listenIngest, Framing: socketFraming}
			src := connector.NewSocketSource(cfg, sink)
			sup.Add(src)
			log.Printf("connector: ingest socket on %s (%s framing)", *listenIngest, socketFraming)
		}
		handler.EnableConnectors(sup)
		if *walDir == "" {
			log.Printf("connectors run without -wal-dir: ingested documents are memory-only and a crash loses them")
		}
	}

	// Recovery phase 2: with the indexes resident and the mine options
	// recorded, re-mine whatever the snapshot had not absorbed, restore
	// the pre-crash generation and arm logging for live ingestion.
	if wal != nil {
		att, err := store.AttachWAL(context.Background(), wal)
		if err != nil {
			log.Fatal(err)
		}
		if att.Batches > 0 {
			log.Printf("wal attached: %d replayed batches, %d dirty terms re-mined, generation %d restored (fsync %s)",
				att.Batches, att.DirtyTerms, att.Generation, *fsync)
		} else {
			log.Printf("wal attached: logging ingest batches (fsync %s)", *fsync)
		}
	}

	if sup != nil {
		sup.Start(context.Background())
		log.Printf("connectors: %d source(s) supervised", sup.NumSources())
	}

	// The periodic saver drives pruning: every successful save absorbs
	// the sealed segments into the corpus file and deletes them, so
	// under sustained ingestion the log stays bounded.
	var pruneStop, pruneDone chan struct{}
	if *walPruneIvl > 0 {
		pruneStop, pruneDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(pruneDone)
			t := time.NewTicker(*walPruneIvl)
			defer t.Stop()
			for {
				select {
				case <-pruneStop:
					return
				case <-t.C:
					if err := store.SaveFile(*snapshot); err != nil {
						log.Printf("periodic snapshot save: %v", err)
					} else {
						log.Printf("snapshot %s re-saved; sealed wal segments absorbed into %s", *snapshot, *corpus)
					}
				}
			}
		}()
		log.Printf("wal pruning armed: re-saving %s every %v", *snapshot, *walPruneIvl)
	}

	if *debugAddr != "" {
		// pprof gets its own listener so profiling can be bound to
		// loopback while queries stay public; a failure here is fatal —
		// an operator who asked for profiling must not silently run
		// without it.
		dbg := &http.Server{Addr: *debugAddr, Handler: handler.DebugHandler()}
		go func() {
			log.Printf("debug listener (pprof, /metrics) on %s", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatalf("debug listener: %v", err)
			}
		}()
	}

	log.Printf("listening on %s", *addr)
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Queries answer in microseconds; anything holding a connection
		// for seconds is a stalled or malicious client, and a
		// long-running service must not pin goroutines on them.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	err = listenAndDrain(srv)
	if sup != nil {
		// Stop the sources first: the socket source drains its buffered
		// batches through the sink before exiting, and nothing may write
		// once the WAL closes.
		sup.Stop()
	}
	if ing != nil {
		// Seal the write door: nothing may ingest once the WAL closes.
		ing.Close()
	}
	if pruneStop != nil {
		// Strictly before the WAL closes.
		close(pruneStop)
		<-pruneDone
	}
	// After the last ingest, so its alerts still reach the queue;
	// draining the dispatcher delivers every queued webhook batch.
	handler.CloseSubscriptions()
	if wal != nil {
		// Only after the listener drained and the ingester sealed: the
		// last batch must hit the log before the log closes.
		if cerr := wal.Close(); cerr != nil {
			log.Printf("closing wal: %v", cerr)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// listenAndDrain runs the HTTP server until it fails or the process
// receives SIGINT/SIGTERM, in which case the listener closes immediately
// and in-flight requests are drained (bounded by a timeout) before
// exiting — a rolling restart never kills a query mid-response.
func listenAndDrain(srv *http.Server) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
		close(errc)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately instead of draining
		log.Printf("shutting down: draining in-flight requests")
		drain, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(drain); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		log.Printf("drained; bye")
		return <-errc
	}
}

// loadOrMine restores the pattern store from the -snapshot bundle when
// one exists, and otherwise mines the corpus — all three kinds in one
// pass for -method all — writing the freshly mined bundle back to the
// snapshot path (when given) so subsequent boots load instead of mining.
func loadOrMine(c *stburst.Collection, path, method string, parallel int) (*stburst.Store, error) {
	if path != "" {
		f, err := os.Open(path)
		switch {
		case err == nil:
			defer f.Close()
			start := time.Now()
			store, err := stburst.LoadStore(f, c)
			if err != nil {
				return nil, fmt.Errorf("snapshot %s: %w", path, err)
			}
			log.Printf("snapshot %s loaded in %v", path, time.Since(start).Round(time.Millisecond))
			return store, nil
		case !os.IsNotExist(err):
			return nil, err
		}
		log.Printf("snapshot %s does not exist; mining corpus", path)
	}

	start := time.Now()
	opts := stburst.NewMineOptions(stburst.WithParallelism(parallel))
	var store *stburst.Store
	if method == "all" {
		var err error
		if store, err = c.MineStore(context.Background(), opts); err != nil {
			return nil, err
		}
		log.Printf("mined all kinds in %v", time.Since(start).Round(time.Millisecond))
	} else {
		kind, err := stburst.ParseKind(method)
		if err != nil || kind == stburst.KindAny {
			return nil, fmt.Errorf("-method must name a concrete kind or \"all\", got %q", method)
		}
		ix, err := c.Mine(context.Background(), kind, opts)
		if err != nil {
			return nil, err
		}
		log.Printf("mined %d terms in %v", ix.NumTerms(), time.Since(start).Round(time.Millisecond))
		store = stburst.NewStore(c)
		if _, err := store.Swap(kind, ix); err != nil {
			return nil, err
		}
	}
	if path != "" {
		if err := store.SaveFile(path); err != nil {
			return nil, err
		}
		log.Printf("bundle written to %s", path)
	}
	return store, nil
}
