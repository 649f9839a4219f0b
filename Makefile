# Tier-1 verification plus the race/determinism, fuzz and benchmark
# suites, and the bundle/serving pipeline.
#
#   make             # build + vet + full tests (tier-1)
#   make vet         # go vet, and fail on files gofmt would change
#   make loc         # non-test code lines (the number ROADMAP aim 2 tracks), settable options and test lines
#   make test-short  # seconds-fast subset (heavy corpus reproductions skipped)
#   make race        # concurrency suite under the race detector
#   make bench       # the per-package go-test micro-benchmarks
#   make bench-check # vet + test the bench/ module (the BENCHMARK.json harness)
#   make examples-smoke # run every examples/* program and diff its stdout against its golden file
#   make fuzz-smoke  # fail on a fuzz target the recipe does not list, then
#                    # 10 s of native fuzzing at each of seventeen targets: the artifact decoders, TA cursor,
#                    # KindAny merge, WAL segment scan, feed line framing, connector checkpoint load,
#                    # the ingest socket's framing, the two miner kernels, the engine's coverage grid
#                    # and segment order, the search and documents body decoders, the appended read
#                    # bodies, the subscription JSON decoder and the corpus line scanner
#   make verify      # tier-1 + race: what CI should run
#   make bundle      # stgen a corpus (if missing) and stmine all three kinds into $(BUNDLE)
#   make serve       # stserve the bundle on $(ADDR)
#   make load        # boot stserve on the bundle and drive $(LOAD_ARGS) at it
#   make loadtest    # the in-process stload smoke (what CI runs)
#   make wal-smoke   # kill -9 a logging stserve mid-ingest, reboot, assert recovery
#   make cluster-smoke # 3-shard stserve cluster behind stgate, stload at the gateway
#   make alert-smoke # subscribe against a live stserve, ingest, assert webhook deliveries
#   make connector-smoke # kill -9 a tailing stserve mid-feed, reboot, assert zero gaps/dupes

GO ?= go
CORPUS ?= corpus.jsonl
BUNDLE ?= corpus.bundle
ADDR ?= :8080
LOAD_ADDR ?= 127.0.0.1:8093
LOAD_ARGS ?= -duration 10s -concurrency 8 -write-fraction 0.1
WAL_ADDR ?= 127.0.0.1:8094
WAL_TMP ?= walsmoke.tmp
CLUSTER_GATE ?= 127.0.0.1:8095
CLUSTER_TMP ?= clustersmoke.tmp
ALERT_ADDR ?= 127.0.0.1:8099
ALERT_SINK ?= 127.0.0.1:8100
ALERT_TMP ?= alertsmoke.tmp
CONN_ADDR ?= 127.0.0.1:8101
CONN_TMP ?= connsmoke.tmp

# A failed stgen/stmine must not leave a truncated artifact that later
# runs treat as up to date.
.DELETE_ON_ERROR:

.PHONY: all build vet loc test test-short race bench bench-check examples-smoke fuzz-smoke verify bundle serve load loadtest wal-smoke cluster-smoke alert-smoke connector-smoke

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || \
		{ echo "gofmt -l is not empty; run gofmt -w on:" >&2; echo "$$unformatted" >&2; exit 1; }

# Lines of Go that are neither blank nor a comment, outside tests and the
# benchmark module: the count every simplification PR reports the same way.
# The second line counts the settable values the simplicity review tallies,
# over the same files: the exported fields of every *Config and *Options
# struct, plus the flag definitions (flag.X or a FlagSet's fs.X) under cmd/.
# The third line counts _test.go lines outside the benchmark module by the
# first line's rule, so code moved into tests leaves the first count and
# enters this one line for line.
FLAG_DEF = (flag|fs)\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var|BoolVar|DurationVar|Float64Var|IntVar|Int64Var|StringVar|UintVar|Uint64Var)\(
loc:
	@find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -not -name '*_test.go' \
		| xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l
	@find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -not -name '*_test.go' \
		| xargs awk 'FNR == 1 { st = 0 } \
			/^type [A-Za-z0-9_]*(Config|Options) struct \{/ { st = 1; next } \
			st && /^}/ { st = 0; next } \
			st && /^\t[A-Z]/ { line = substr($$0, 2); n++; \
				while (match(line, /^[A-Za-z0-9_]+, */)) { line = substr(line, RLENGTH + 1); n++ } } \
			FILENAME ~ /^\.\/cmd\// { n += gsub(/$(FLAG_DEF)/, "&") } \
			END { print n + 0, "options" }'
	@find . -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' \
		| xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l | sed 's/$$/ test lines/'

test: build vet
	$(GO) test ./...

test-short: build
	$(GO) test -short ./...

race: build
	$(GO) test -race -short ./...
	$(GO) test -race -run 'TestMineAll|TestConcurrent|TestSearchAnswers|TestPatternIndex|TestLoaded|TestIngest|TestAppend|TestWAL' .
	$(GO) test -race ./internal/serve/ ./internal/metrics/ ./internal/wal/ ./internal/gate/ ./internal/sub/ ./internal/connector/

# The micro-benchmarks that sit beside their packages; end-to-end numbers
# come from bench/ (sh bench/run.sh), the one benchmark system.
bench: build
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# bench/ is a module of its own (it imports stburst/internal/*), so
# neither `go build ./...` nor `go test ./...` at the root compiles it:
# this target is what catches a changed signature the benchmark pins
# before the benchmark pipeline does.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Each example prints a fixed walkthrough; its stdout must equal
# examples/<name>/testdata/stdout.golden. TMPDIR is pinned because the
# serve example prints the os.TempDir() path of the bundle it writes.
examples-smoke:
	@set -e; for d in examples/*/; do \
		name=$$(basename $$d); \
		TMPDIR=/tmp $(GO) run ./$$d | diff -u $${d}testdata/stdout.golden - \
			|| { echo "examples-smoke: $$name stdout differs from its golden file" >&2; exit 1; }; \
		echo "examples-smoke: $$name ok"; \
	done

# go test -fuzz takes one target per run. Minimizing every new-coverage
# input would eat the ten seconds, so it is off; a crasher is still
# written to the package's testdata/fuzz. The recipe first checks that
# every func Fuzz... in a _test.go outside bench/ has a line here, and
# names any that does not.
fuzz-smoke:
	@missing=; for f in $$(grep -rhoE --include='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build '^func Fuzz[A-Za-z0-9_]*' . | cut -c6-); do \
		grep -qF -- "-fuzz '^$$f\$$" $(firstword $(MAKEFILE_LIST)) || missing="$$missing $$f"; \
	done; \
	test -z "$$missing" || { echo "fuzz-smoke: fuzz target(s) not in the recipe:$$missing" >&2; exit 1; }
	$(GO) test -run '^$$' -fuzz '^FuzzReadBundle$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzCursor$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzCoverage$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentOrder$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzQueryKinds$$' -fuzztime 10s -fuzzminimizetime 0 .
	$(GO) test -run '^$$' -fuzz '^FuzzSubscriptionJSON$$' -fuzztime 10s -fuzzminimizetime 0 .
	$(GO) test -run '^$$' -fuzz '^FuzzWALOpen$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzLineReader$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/connector
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/connector
	$(GO) test -run '^$$' -fuzz '^FuzzSocketFrames$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/connector
	$(GO) test -run '^$$' -fuzz '^FuzzMaxRect$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/discrepancy
	$(GO) test -run '^$$' -fuzz '^FuzzTopCliques$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/interval
	$(GO) test -run '^$$' -fuzz '^FuzzSearchBody$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDocumentsBody$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzReadBodies$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzCorpusLine$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/corpusio

verify: test race

$(CORPUS):
	$(GO) run ./cmd/stgen -kind topix > $@

$(BUNDLE): $(CORPUS)
	$(GO) run ./cmd/stmine -all -method all -corpus $(CORPUS) -o $@ > /dev/null

bundle: $(BUNDLE)

serve: $(BUNDLE)
	$(GO) run ./cmd/stserve -corpus $(CORPUS) -snapshot $(BUNDLE) -addr $(ADDR)

# Boot stserve (with ingestion armed) on the bundle, aim stload at it,
# print the JSON report, and tear the server down. LOAD_ARGS tunes the
# run; LOAD_ADDR keeps it off the default serving port.
load: $(BUNDLE)
	$(GO) build -o bin/stserve ./cmd/stserve
	$(GO) build -o bin/stload ./cmd/stload
	@set -e; \
	./bin/stserve -corpus $(CORPUS) -snapshot $(BUNDLE) -addr $(LOAD_ADDR) -ingest & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do \
		curl -sf http://$(LOAD_ADDR)/v1/healthz > /dev/null 2>&1 && break; sleep 0.3; \
	done; \
	./bin/stload -target http://$(LOAD_ADDR) $(LOAD_ARGS); \
	echo "--- /metrics after the run ---"; \
	curl -sf http://$(LOAD_ADDR)/metrics | grep '^stserve_http_requests_total'

# The in-process load smoke CI runs: boots the real serve handler on a
# generated corpus inside the test binary and asserts the stload report
# parses with zero transport errors and server-matching counters — no
# ports, no background processes, race detector on.
loadtest: build
	$(GO) test -race -count=1 -run 'TestFlagValidation|TestReportRoundTrip|TestSmokeMixedLoad' ./cmd/stload/

# Crash-durability smoke over the real binaries: boot a logging stserve
# on a small generated corpus, drive write-only load through the WAL,
# kill -9 mid-flight state, reboot on the same log, and assert the
# generation and document count come back exactly — zero acknowledged
# batches lost. A second pass runs the same drill with pruning armed
# (-snapshot plus -wal-prune-interval 1s) on a copy of the corpus, and
# kills only once the timer's saves have absorbed every ingested
# document into that corpus file and the log is down to its one active
# segment. The root-package tests prove bit-identical recovery at every
# truncation point; this proves the shipped binaries wire it up.
wal-smoke:
	$(GO) build -o bin/stgen ./cmd/stgen
	$(GO) build -o bin/stserve ./cmd/stserve
	$(GO) build -o bin/stload ./cmd/stload
	@set -e; \
	rm -rf $(WAL_TMP); mkdir -p $(WAL_TMP); \
	trap 'kill -9 $$pid 2>/dev/null || true; rm -rf $(WAL_TMP)' EXIT; \
	./bin/stgen -kind topix -seed 1 -articles 0.4 -vocab 300 -tokens 8 > $(WAL_TMP)/corpus.jsonl; \
	corpus=corpus.jsonl; wal=wal; extra=""; \
	boot() { \
		./bin/stserve -corpus $(WAL_TMP)/$$corpus -addr $(WAL_ADDR) \
			-method stlocal -ingest -wal-dir $(WAL_TMP)/$$wal $$extra & pid=$$!; \
		for i in $$(seq 1 200); do \
			curl -sf http://$(WAL_ADDR)/v1/healthz > /dev/null 2>&1 && return 0; sleep 0.3; \
		done; \
		echo "wal-smoke: stserve did not become healthy" >&2; return 1; \
	}; \
	boot; \
	gen0=$$(curl -sf http://$(WAL_ADDR)/v1/generation); \
	./bin/stload -target http://$(WAL_ADDR) -requests 60 -seed 1 -concurrency 4 \
		-write-fraction 1 -vocab 300 > $(WAL_TMP)/load.json; \
	gen1=$$(curl -sf http://$(WAL_ADDR)/v1/generation); \
	docs1=$$(curl -sf http://$(WAL_ADDR)/v1/stats | grep -o '"docs": [0-9]*'); \
	test "$$gen0" != "$$gen1" || { echo "wal-smoke: load ingested nothing (generation never moved)" >&2; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	boot; \
	gen2=$$(curl -sf http://$(WAL_ADDR)/v1/generation); \
	docs2=$$(curl -sf http://$(WAL_ADDR)/v1/stats | grep -o '"docs": [0-9]*'); \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null || true; \
	test "$$gen1" = "$$gen2" || { echo "wal-smoke: generation not recovered: pre-kill $$gen1, post-reboot $$gen2" >&2; exit 1; }; \
	test "$$docs1" = "$$docs2" || { echo "wal-smoke: documents lost: pre-kill $$docs1, post-reboot $$docs2" >&2; exit 1; }; \
	echo "wal-smoke: kill -9 survived — $$docs2 and $$gen2" | tr '\n' ' '; echo "recovered"; \
	cp $(WAL_TMP)/corpus.jsonl $(WAL_TMP)/prune.jsonl; \
	corpus=prune.jsonl; wal=walprune; \
	extra="-snapshot $(WAL_TMP)/prune.bundle -wal-prune-interval 1s"; \
	lines0=$$(wc -l < $(WAL_TMP)/prune.jsonl); \
	boot; \
	docs() { curl -sf http://$(WAL_ADDR)/v1/stats | grep -o '"docs": [0-9]*' | grep -o '[0-9]*$$'; }; \
	gen0=$$(curl -sf http://$(WAL_ADDR)/v1/generation); docs0=$$(docs); \
	./bin/stload -target http://$(WAL_ADDR) -requests 60 -seed 1 -concurrency 4 \
		-write-fraction 1 -vocab 300 > $(WAL_TMP)/prune-load.json; \
	gen1=$$(curl -sf http://$(WAL_ADDR)/v1/generation); docs1=$$(docs); \
	test "$$gen0" != "$$gen1" || { echo "wal-smoke: pruning pass ingested nothing (generation never moved)" >&2; exit 1; }; \
	want=$$(($$lines0 + $$docs1 - $$docs0)); \
	ok=0; for i in $$(seq 1 100); do \
		lines=$$(wc -l < $(WAL_TMP)/prune.jsonl); \
		segs=$$(curl -sf http://$(WAL_ADDR)/metrics | awk '/^stserve_wal_segments /{ print $$2 }'); \
		test "$$lines" = "$$want" && test "$$segs" = 1 && { ok=1; break; }; sleep 0.3; \
	done; \
	test $$ok = 1 || { echo "wal-smoke: pruning never absorbed the log: corpus $$lines lines (want $$want), $$segs wal segments (want 1)" >&2; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	boot; \
	gen2=$$(curl -sf http://$(WAL_ADDR)/v1/generation); docs2=$$(docs); \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null || true; \
	test "$$gen1" = "$$gen2" || { echo "wal-smoke: pruned generation not recovered: pre-kill $$gen1, post-reboot $$gen2" >&2; exit 1; }; \
	test "$$docs1" = "$$docs2" || { echo "wal-smoke: pruned documents lost: pre-kill $$docs1, post-reboot $$docs2" >&2; exit 1; }; \
	echo "wal-smoke: kill -9 after pruning survived — $$docs2 docs and generation $$(echo $$gen2 | grep -o '[0-9]*') recovered from the absorbing corpus file"

# Scatter-gather smoke over the real binaries: mine a 3-shard partition,
# boot one stserve per shard and an stgate over them, drive read-only
# stload at the gateway, and assert a clean run (exit 0 = zero transport
# errors), a 3-shard topology header in the report, and gateway /metrics
# per-route totals equal to the report's sent counts — the same
# accounting loop the single-node smoke closes, now across the fan-out.
# Each member's term bundle route is checked on its own first, the
# term's owner among them: ?kind=regional ships one member, shorter than
# the all-kind bundle, and a kind ParseKind refuses is a 400.
cluster-smoke:
	$(GO) build -o bin/stgen ./cmd/stgen
	$(GO) build -o bin/stmine ./cmd/stmine
	$(GO) build -o bin/stserve ./cmd/stserve
	$(GO) build -o bin/stgate ./cmd/stgate
	$(GO) build -o bin/stload ./cmd/stload
	@set -e; \
	rm -rf $(CLUSTER_TMP); mkdir -p $(CLUSTER_TMP); \
	pids=""; trap 'kill $$pids 2>/dev/null || true; rm -rf $(CLUSTER_TMP)' EXIT; \
	./bin/stgen -kind topix -seed 1 -articles 0.4 -vocab 300 -tokens 8 > $(CLUSTER_TMP)/corpus.jsonl; \
	./bin/stmine -all -method all -shards 3 -corpus $(CLUSTER_TMP)/corpus.jsonl \
		-o $(CLUSTER_TMP)/corpus.bundle > /dev/null; \
	i=0; for port in 8096 8097 8098; do \
		./bin/stserve -corpus $(CLUSTER_TMP)/corpus.jsonl -addr 127.0.0.1:$$port \
			-snapshot $(CLUSTER_TMP)/corpus-shard$$i-of3.bundle & pids="$$pids $$!"; \
		i=$$((i+1)); \
	done; \
	for port in 8096 8097 8098; do \
		ok=0; for t in $$(seq 1 200); do \
			curl -sf http://127.0.0.1:$$port/v1/healthz > /dev/null 2>&1 && { ok=1; break; }; sleep 0.3; \
		done; \
		test $$ok = 1 || { echo "cluster-smoke: member on $$port never became healthy" >&2; exit 1; }; \
	done; \
	for port in 8096 8097 8098; do \
		bundle=http://127.0.0.1:$$port/v1/patterns/earthquake/bundle; \
		code=$$(curl -s -o $(CLUSTER_TMP)/all.bundle -w '%{http_code}' $$bundle); \
		test "$$code" = 200 || { echo "cluster-smoke: $$bundle answered $$code" >&2; exit 1; }; \
		code=$$(curl -s -o $(CLUSTER_TMP)/regional.bundle -w '%{http_code}' "$$bundle?kind=regional"); \
		all=$$(wc -c < $(CLUSTER_TMP)/all.bundle); one=$$(wc -c < $(CLUSTER_TMP)/regional.bundle); \
		test "$$code" = 200 && test $$one -gt 0 && test $$one -lt $$all || \
			{ echo "cluster-smoke: $$bundle?kind=regional answered $$code with $$one bytes, want 200 and fewer than the all-kind $$all" >&2; exit 1; }; \
		code=$$(curl -s -o /dev/null -w '%{http_code}' "$$bundle?kind=nope"); \
		test "$$code" = 400 || { echo "cluster-smoke: $$bundle?kind=nope answered $$code, want 400" >&2; exit 1; }; \
	done; \
	./bin/stgate -addr $(CLUSTER_GATE) -shard http://127.0.0.1:8096 \
		-shard http://127.0.0.1:8097 -shard http://127.0.0.1:8098 & pids="$$pids $$!"; \
	ok=0; for t in $$(seq 1 200); do \
		curl -sf http://$(CLUSTER_GATE)/v1/healthz > /dev/null 2>&1 && { ok=1; break; }; sleep 0.3; \
	done; \
	test $$ok = 1 || { echo "cluster-smoke: gateway never assembled the cluster" >&2; exit 1; }; \
	./bin/stload -target http://$(CLUSTER_GATE) -requests 200 -seed 1 -concurrency 4 \
		-write-fraction 0 -vocab 300 > $(CLUSTER_TMP)/report.json; \
	grep -q '"shards": 3' $(CLUSTER_TMP)/report.json || \
		{ echo "cluster-smoke: report topology does not say 3 shards" >&2; exit 1; }; \
	curl -sf http://$(CLUSTER_GATE)/metrics | awk -F'"' \
		'index($$0, "stgate_http_requests_total{route=") == 1 \
			&& $$2 != "GET /v1/healthz" && $$2 != "GET /metrics" \
			{ k = split($$0, a, " "); sum[$$2] += a[k] } \
		END { for (r in sum) printf "%s\t%d\n", r, sum[r] }' \
		| sort > $(CLUSTER_TMP)/served; \
	awk -F'"' '/"ops_by_route"/ { f = 1; next } \
		f && /^[ \t]*\},?$$/ { f = 0 } \
		f && NF >= 3 { c = $$3; gsub(/[^0-9]/, "", c); n[$$2] = c } \
		END { n["GET /v1/stats"] += 1; for (r in n) printf "%s\t%d\n", r, n[r] }' \
		$(CLUSTER_TMP)/report.json | sort > $(CLUSTER_TMP)/sent; \
	diff -u $(CLUSTER_TMP)/sent $(CLUSTER_TMP)/served || \
		{ echo "cluster-smoke: gateway /metrics disagrees with the stload report (sent vs served above)" >&2; exit 1; }; \
	echo "cluster-smoke: 3-shard scatter-gather clean — gateway counters match the stload report"

# End-to-end alerting smoke over the real binaries: boot stserve with
# ingestion and subscriptions armed, register a standing query whose
# webhook points at an stsink receiver, push event bursts through
# stload, and assert the sink logged >= 1 alert batch AND the server's
# /metrics delivery counters agree with the sink's ledger — every alert
# the server claims delivered landed in the file, none dropped. The
# matcher/registry semantics are proven by the oracle tests; this step
# proves the shipped binaries wire subscribe -> ingest -> re-mine ->
# match -> webhook end to end.
alert-smoke:
	$(GO) build -o bin/stgen ./cmd/stgen
	$(GO) build -o bin/stserve ./cmd/stserve
	$(GO) build -o bin/stload ./cmd/stload
	$(GO) build -o bin/stsink ./cmd/stsink
	@set -e; \
	rm -rf $(ALERT_TMP); mkdir -p $(ALERT_TMP); \
	pids=""; trap 'kill $$pids 2>/dev/null || true; rm -rf $(ALERT_TMP)' EXIT; \
	./bin/stgen -kind topix -seed 1 -articles 0.4 -vocab 300 -tokens 8 > $(ALERT_TMP)/corpus.jsonl; \
	./bin/stsink -addr $(ALERT_SINK) -out $(ALERT_TMP)/alerts.jsonl & pids="$$pids $$!"; \
	./bin/stserve -corpus $(ALERT_TMP)/corpus.jsonl -addr $(ALERT_ADDR) \
		-method stlocal -ingest -subscriptions -webhook-allow-private & pids="$$pids $$!"; \
	for url in http://$(ALERT_SINK) http://$(ALERT_ADDR); do \
		ok=0; for t in $$(seq 1 200); do \
			curl -sf $$url/v1/healthz > /dev/null 2>&1 && { ok=1; break; }; sleep 0.3; \
		done; \
		test $$ok = 1 || { echo "alert-smoke: $$url never became healthy" >&2; exit 1; }; \
	done; \
	curl -sf -X POST -H 'Content-Type: application/json' \
		-d '{"owner":"smoke","terms":["earthquake","rescue"],"webhook":"http://$(ALERT_SINK)/hook"}' \
		http://$(ALERT_ADDR)/v1/subscriptions > /dev/null \
		|| { echo "alert-smoke: subscription registration failed" >&2; exit 1; }; \
	./bin/stload -target http://$(ALERT_ADDR) -requests 120 -seed 1 -concurrency 4 \
		-write-fraction 1 -vocab 300 > $(ALERT_TMP)/load.json; \
	ok=0; for t in $$(seq 1 200); do \
		batches=$$(grep -c '"subscription_id"' $(ALERT_TMP)/alerts.jsonl 2>/dev/null || true); \
		sunk=$$(grep -o '"count":[0-9]*' $(ALERT_TMP)/alerts.jsonl 2>/dev/null \
			| awk -F: '{ s += $$2 } END { print s + 0 }'); \
		delivered=$$(curl -sf http://$(ALERT_ADDR)/metrics \
			| awk '/^stserve_alerts_delivered_total /{ print $$2 }'); \
		test "$${batches:-0}" -ge 1 && test "$$delivered" = "$$sunk" && { ok=1; break; }; \
		sleep 0.3; \
	done; \
	test $$ok = 1 || { echo "alert-smoke: sink saw $${batches:-0} batches ($$sunk alerts), server claims $$delivered delivered" >&2; exit 1; }; \
	curl -sf http://$(ALERT_ADDR)/metrics | grep -q '^stserve_alerts_dropped_total 0$$' \
		|| { echo "alert-smoke: server dropped deliveries" >&2; exit 1; }; \
	echo "alert-smoke: webhook path live — $$batches batches, $$sunk alerts delivered, /metrics agrees"

# Streaming-connector crash smoke over the real binaries: stgen -follow
# appends a seed-deterministic feed while stserve tails it into the WAL,
# kill -9 lands mid-stream, and the reboot must converge on EXACTLY
# base + feed documents — the tailer's checkpoint dedupes what the WAL
# already replayed, so a gap or a duplicate both fail the equality. The
# connector tests prove checksum-identical recovery at every cut point;
# this proves the shipped binaries wire feed -> tail -> WAL -> re-mine.
connector-smoke:
	$(GO) build -o bin/stgen ./cmd/stgen
	$(GO) build -o bin/stserve ./cmd/stserve
	@set -e; \
	rm -rf $(CONN_TMP); mkdir -p $(CONN_TMP); \
	pids=""; trap 'kill -9 $$pids 2>/dev/null || true; rm -rf $(CONN_TMP)' EXIT; \
	./bin/stgen -kind topix -seed 1 -articles 0.1 -vocab 300 -tokens 8 > $(CONN_TMP)/corpus.jsonl; \
	./bin/stgen -kind topix -seed 2 -articles 0.05 -vocab 300 -tokens 8 \
		-follow -rate 100 -o $(CONN_TMP)/feed.jsonl 2> /dev/null & genpid=$$!; pids="$$pids $$genpid"; \
	boot() { \
		./bin/stserve -corpus $(CONN_TMP)/corpus.jsonl -addr $(CONN_ADDR) -method stlocal \
			-tail $(CONN_TMP)/feed.jsonl -wal-dir $(CONN_TMP)/wal & pid=$$!; pids="$$pids $$pid"; \
		for i in $$(seq 1 200); do \
			curl -sf http://$(CONN_ADDR)/v1/healthz > /dev/null 2>&1 && return 0; sleep 0.3; \
		done; \
		echo "connector-smoke: stserve did not become healthy" >&2; return 1; \
	}; \
	docs() { curl -sf http://$(CONN_ADDR)/metrics | awk '/^stserve_collection_docs /{ print $$2 }'; }; \
	base=$$(($$(wc -l < $(CONN_TMP)/corpus.jsonl) - 1)); \
	boot; \
	ok=0; for t in $$(seq 1 300); do \
		d=$$(docs); test -n "$$d" && test "$$d" -gt "$$base" && { ok=1; break; }; sleep 0.1; \
	done; \
	test $$ok = 1 || { echo "connector-smoke: tailer never ingested anything" >&2; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	kill -0 $$genpid 2>/dev/null || \
		{ echo "connector-smoke: feed already complete at the kill; slow -rate or grow -articles" >&2; exit 1; }; \
	boot; \
	wait $$genpid || true; \
	expect=$$(($$base + $$(wc -l < $(CONN_TMP)/feed.jsonl) - 1)); \
	ok=0; for t in $$(seq 1 300); do \
		d=$$(docs); test "$$d" = "$$expect" && { ok=1; break; }; sleep 0.1; \
	done; \
	test $$ok = 1 || { echo "connector-smoke: $$d docs after reboot, want exactly $$expect (zero gaps, zero dupes)" >&2; exit 1; }; \
	sleep 1; d=$$(docs); \
	test "$$d" = "$$expect" || { echo "connector-smoke: count crept past $$expect to $$d: duplicates" >&2; exit 1; }; \
	curl -sf http://$(CONN_ADDR)/metrics | grep -q '^stserve_connector_docs_total{connector="tail:' \
		|| { echo "connector-smoke: per-connector metrics missing from /metrics" >&2; exit 1; }; \
	curl -sf http://$(CONN_ADDR)/v1/stats | grep -q '"connectors"' \
		|| { echo "connector-smoke: /v1/stats has no connectors block" >&2; exit 1; }; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null || true; \
	echo "connector-smoke: kill -9 survived — $$expect documents tailed, zero gaps, zero dupes"
