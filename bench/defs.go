package main

// metricDef names a metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEndDefs are the five gated metrics; every workload reports all of
// them. Their bounds live in BENCHMARK.json.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"main_ms", "ms", "lower"},
	{"side_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerDefs are the ungated per-layer metrics of the traced pass, in
// the order of the interaction table in README.md. A workload measures
// the layers it drives; the single-workload result line reports the
// others as 0 because its reader expects every name.
var perLayerDefs = []metricDef{
	{"serve.handler_ms", "ms", "lower"},
	{"serve.self_ms", "ms", "lower"},
	{"serve.resp_bytes", "B", "lower"},
	{"serve.allocs_per_op", "count", "lower"},
	{"serve.p90_ms", "ms", "lower"},
	{"serve.p99_ms", "ms", "lower"},
	{"serve.wall_ops_per_s", "1/s", "higher"},
	{"store.query_ms", "ms", "lower"},
	{"store.self_ms", "ms", "lower"},
	{"store.patterns_ms", "ms", "lower"},
	{"search.run_ms", "ms", "lower"},
	{"search.fetch_rounds_per_query", "count", "lower"},
	{"index.topk_ms", "ms", "lower"},
	{"textproc.tokenize_ms", "ms", "lower"},
	{"gate.scatter_ms", "ms", "lower"},
	{"gate.forward_ms", "ms", "lower"},
	{"gate.self_ms", "ms", "lower"},
	{"gate.member_reqs_per_search", "count", "lower"},
	{"gate.member_bytes_per_search", "B", "lower"},
	{"gate.allocs_per_op", "count", "lower"},
	{"store.ingest_ms", "ms", "lower"},
	{"serve.ingest_self_ms", "ms", "lower"},
	{"wal.append_ms", "ms", "lower"},
	{"wal.bytes_per_doc", "B", "lower"},
	{"stream.append_ms", "ms", "lower"},
	{"stream.dirty_terms_per_batch", "count", "lower"},
	{"search.remine_ms", "ms", "lower"},
	{"search.build_ms", "ms", "lower"},
	{"sub.match_ms", "ms", "lower"},
	{"sub.alerts_per_batch", "count", "higher"},
	{"ingest.allocs_per_batch", "count", "lower"},
	{"ingest.reader_ms", "ms", "lower"},
	{"store.ingest_explained_share", "share", "higher"},
	{"store.ingest_scale", "ratio", "lower"},
	{"core.stlocal_ms_per_term", "ms", "lower"},
	{"core.stcomb_ms_per_term", "ms", "lower"},
	{"burst.temporal_ms_per_term", "ms", "lower"},
	{"search.mine1_ms", "ms", "lower"},
	{"par.speedup", "ratio", "higher"},
	{"mine.allocs_per_term", "count", "lower"},
	{"mine.alloc_mb_per_pass", "MB", "lower"},
	{"mine.patterns", "count", "higher"},
	{"corpusio.load_ms", "ms", "lower"},
	{"index.encode_ms", "ms", "lower"},
	{"index.decode_ms", "ms", "lower"},
	{"index.bundle_bytes", "B", "lower"},
	{"index.bytes_per_pattern", "B", "lower"},
	{"wire.search_ms", "ms", "lower"},
	{"wire.overhead_ms", "ms", "lower"},
	{"host.steal_share", "share", "lower"},
	{"host.loadavg", "count", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

// noisySteal is the hypervisor-steal share above which a run is marked
// noisy in the report.
const noisySteal = 0.25

// speedupMinProcs is the GOMAXPROCS below which par.speedup is refused:
// on two cores the ratio measures the scheduler, not the miners.
const speedupMinProcs = 4

// corpusSize parameterizes the generated Topix-like corpus.
type corpusSize struct {
	Weekly float64
	Vocab  int
	Tokens float64
}

// sizing fixes every size of a run. The full sizing is the benchmark;
// the smoke sizing exists so the test can run all four workloads in
// seconds.
type sizing struct {
	Small, Mid corpusSize // the read workloads' corpora
	XS         corpusSize // the corpus of the workloads that rebuild state every round

	ServeMain, ServeSide int // ops per serve_read class
	ServeMinRounds       int

	GateScatter, GateForward int // ops per gate_read class
	GateMinRounds            int

	IngestBatches, IngestBatchDocs, IngestSubs int
	IngestMinRounds                            int
	IngestScaleBatches                         int // acks on the mid corpus for store.ingest_scale

	MineMinRounds int

	// TracedMinRounds is the least number of rounds of a traced pass, and
	// LayerReps how often mine_cold's layer measurements repeat.
	TracedMinRounds, LayerReps int
}

var fullSizing = sizing{
	Small: corpusSize{0.4, 300, 8},
	Mid:   corpusSize{0.7, 700, 12},
	XS:    corpusSize{0.2, 150, 8},

	ServeMain: 125, ServeSide: 60, ServeMinRounds: 15,
	GateScatter: 20, GateForward: 100, GateMinRounds: 12,
	IngestBatches: 4, IngestBatchDocs: 8, IngestSubs: 200, IngestMinRounds: 3, IngestScaleBatches: 3,
	MineMinRounds:   9,
	TracedMinRounds: 2, LayerReps: 3,
}

var smokeSizing = sizing{
	Small: corpusSize{0.1, 20, 6},
	Mid:   corpusSize{0.1, 20, 6},
	XS:    corpusSize{0.1, 20, 6},

	ServeMain: 20, ServeSide: 10, ServeMinRounds: 3,
	GateScatter: 4, GateForward: 10, GateMinRounds: 3,
	IngestBatches: 2, IngestBatchDocs: 4, IngestSubs: 10, IngestMinRounds: 3, IngestScaleBatches: 1,
	MineMinRounds:   3,
	TracedMinRounds: 1, LayerReps: 1,
}
