// Command bench is the repository's benchmark: four in-process workloads
// replayed by the replay-median rule, five gated end-to-end metrics per
// workload, and a traced pass that takes per-layer spans from outside
// the program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

var workloadNames = []string{"serve_read", "gate_read", "ingest_live", "mine_cold"}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "serve_read":
		return &serveRead{e: e}, nil
	case "gate_read":
		return &gateRead{e: e}, nil
	case "ingest_live":
		return &ingestLive{e: e}, nil
	case "mine_cold":
		return &mineCold{e: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(workloadNames, ", "))
}

// scratchRoot is where every file the benchmark writes lives, relative
// to the directory it is run from: the checkout, never the system's
// temporary directory.
const scratchRoot = ".bench_build"

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	out       string
	keep      bool
	smoke     bool
	selfcheck bool
	result    string // child only: where to write the full result
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	started := now()
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the corpus and the op lists")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of each timed pass, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 repeats each workload traced after the untraced pass and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "write the full report here as JSON (trace.json goes beside it)")
	fs.BoolVar(&o.keep, "keep", false, "keep the scratch directory")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny corpora and op lists: a seconds-long run of all the code, for the test")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets of three full runs and compare their medians with the bounds in BENCHMARK.json")
	fs.StringVar(&o.result, "result", "", "internal: file the child of an -workload all run writes its result to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	// The shipped handlers log per request (a lifted write deadline, a
	// flush); the benchmark's own output is the report.
	log.SetOutput(io.Discard)
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cleanup := func() {
		if !o.keep {
			os.RemoveAll(scratch)
		}
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	switch {
	case o.selfcheck:
		err = selfcheck(o, scratch, stdout, stderr)
	case o.workload == "all":
		err = runAll(o, scratch, stdout, stderr)
	default:
		err = runOne(o, scratch, started, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func (o options) sizing() sizing {
	if o.smoke {
		return smokeSizing
	}
	return fullSizing
}

// traceDir is where trace files go: beside the report, or the scratch
// root when no report was asked for.
func (o options) traceDir() string {
	if o.out != "" {
		return filepath.Dir(o.out)
	}
	return scratchRoot
}

// runOne runs a single workload in this process and prints, as the last
// line of standard output, the result object the driver reads.
func runOne(o options, scratch string, started stamp, stdout, stderr io.Writer) error {
	budget := time.Duration(o.seconds * float64(time.Second))
	tracePath := ""
	switch {
	case o.trace != 1:
	case o.result != "":
		tracePath = filepath.Join(filepath.Dir(o.result), traceName(o.workload))
	default:
		tracePath = filepath.Join(o.traceDir(), "trace.json")
	}
	res, err := runWorkload(o.workload, o.seed, o.sizing(), budget, tracePath, scratch, started)
	if err != nil {
		return err
	}
	if o.result != "" {
		raw, err := json.Marshal(res)
		if err != nil {
			return err
		}
		return os.WriteFile(o.result, raw, 0o644)
	}
	printResult(stderr, res)
	if o.out != "" {
		if err := writeReport(o, []*result{res}); err != nil {
			return err
		}
	}
	// With -trace 0 the metrics are every end-to-end metric; with
	// -trace 1 every per-layer metric BENCHMARK.json lists, a layer this
	// workload does not drive reading 0.
	metrics := res.EndToEnd
	if o.trace == 1 {
		metrics = map[string]metric{}
		for _, def := range perLayerDefs {
			if def.Name == "par.speedup" {
				continue // refused below speedupMinProcs, so never promised
			}
			m, ok := res.PerLayer[def.Name]
			if !ok {
				m = metric{0, def.Unit}
			}
			metrics[def.Name] = m
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res.failure()
}

// failure is the error a run with a failed op ends in.
func (res *result) failure() error {
	if res.Correct {
		return nil
	}
	return fmt.Errorf("%s: %d of %d ops failed: %s", res.Workload, res.Failed, res.Attempted, strings.Join(res.Errors, "; "))
}

func traceName(workload string) string { return "trace-" + workload + ".json" }

// runChildren re-executes this binary once per workload, so each gets a
// fresh process: its own setup_s, its own peak_rss_mb, no heap carried
// over from the workload before.
func runChildren(o options, scratch string, stderr io.Writer) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, name := range workloadNames {
		file := filepath.Join(scratch, name+".json")
		args := []string{
			"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace), "-result", file,
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stderr, stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		res := new(result)
		if err := json.Unmarshal(raw, res); err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// runAll runs every workload, prints every metric by name with its unit,
// and fails on a wrong answer.
func runAll(o options, scratch string, stdout, stderr io.Writer) error {
	results, err := runChildren(o, scratch, stderr)
	if err != nil {
		return err
	}
	for _, res := range results {
		printResult(stdout, res)
	}
	if o.trace == 1 {
		if err := mergeTraces(scratch, filepath.Join(o.traceDir(), "trace.json")); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := writeReport(o, results); err != nil {
			return err
		}
	}
	for _, res := range results {
		if err := res.failure(); err != nil {
			return err
		}
	}
	return nil
}

// mergeTraces gathers the children's span files into one trace.json,
// keyed by workload.
func mergeTraces(scratch, path string) error {
	all := map[string]json.RawMessage{}
	for _, name := range workloadNames {
		raw, err := os.ReadFile(filepath.Join(scratch, traceName(name)))
		if err != nil {
			return err
		}
		all[name] = raw
	}
	raw, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s  seed %d  R=%d  ops %s  unit: one %s  attempted %d failed %d",
		res.Workload, res.Seed, res.Rounds, res.Fingerprint, res.Unit, res.Attempted, res.Failed)
	if res.Noisy {
		fmt.Fprintf(w, "  NOISY (steal > %.2f)", noisySteal)
	}
	fmt.Fprintln(w)
	for _, def := range endToEndDefs {
		m := res.EndToEnd[def.Name]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", def.Name, m.Value, m.Unit)
	}
	for _, c := range res.Classes {
		role := "main"
		if c.Side {
			role = "side"
		}
		fmt.Fprintf(w, "  class %-18s %s  ops %4d  samples %6d  p50 %10.4f  p90 %10.4f  p99 %10.4f ms\n",
			c.Name, role, c.Ops, c.Samples, c.P50, c.P90, c.P99)
	}
	names := make([]string, 0, len(res.PerLayer))
	for name := range res.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.PerLayer[name]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// header stamps a report with what it was measured on.
type header struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	CPU        string            `json:"cpu"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Rounds     map[string]int    `json:"rounds"`
	OpLists    map[string]string `json:"op_list_fingerprints"`
}

func writeReport(o options, results []*result) error {
	h := header{
		Commit: commit(), GoVersion: runtime.Version(), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds,
		Rounds: map[string]int{}, OpLists: map[string]string{},
	}
	for _, res := range results {
		h.Rounds[res.Workload] = res.Rounds
		h.OpLists[res.Workload] = res.Fingerprint
	}
	raw, err := json.MarshalIndent(map[string]any{"header": h, "workloads": results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(raw, '\n'), 0o644)
}

// commit is the checkout's HEAD, or "unknown" outside a git repository
// (the driver's checkout is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
