package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the path of the benchmark's contract, relative to the
// directory the benchmark is run from (the repository root).
const benchmarkFile = "BENCHMARK.json"

// contract is the part of BENCHMARK.json the program reads back.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := new(contract)
	if err := json.Unmarshal(raw, c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

const (
	selfcheckSets = 2
	selfcheckRuns = 3
)

// selfcheck runs two sets of three full runs of this build, every run on
// a seed of its own as the driver does, and compares the two sets'
// medians with the bounds in BENCHMARK.json: a benchmark whose own
// reruns disagree by more than a bound cannot gate a change by it.
func selfcheck(o options, scratch string, stdout, stderr io.Writer) error {
	c, err := readContract(benchmarkFile)
	if err != nil {
		return err
	}
	o.trace = 0
	// values[set][workload][metric] collects the set's runs.
	var values [selfcheckSets]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for run := 0; run < selfcheckRuns; run++ {
			oo := o
			oo.seed = o.seed + int64(set*selfcheckRuns+run)
			fmt.Fprintf(stderr, "selfcheck: set %d run %d (seed %d)\n", set+1, run+1, oo.seed)
			results, err := runChildren(oo, scratch, io.Discard)
			if err != nil {
				return err
			}
			for _, res := range results {
				if err := res.failure(); err != nil {
					return err
				}
				if values[set][res.Workload] == nil {
					values[set][res.Workload] = map[string][]float64{}
				}
				for name, m := range res.EndToEnd {
					values[set][res.Workload][name] = append(values[set][res.Workload][name], m.Value)
				}
			}
		}
	}

	fmt.Fprintf(stdout, "| workload | metric | set 1 median | set 2 median | gap | bound |\n|---|---|---|---|---|---|\n")
	worst := map[string]float64{}
	breaches := 0
	for _, name := range workloadNames {
		for _, m := range c.EndToEnd {
			a, b := median(values[0][name][m.Name]), median(values[1][name][m.Name])
			gap := math.Abs(b-a) / a
			worst[m.Name] = max(worst[m.Name], gap)
			mark := ""
			if gap > m.Bound {
				mark = " BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4f %s | %.4f %s | %.3f%s | %.2f |\n", name, m.Name, a, m.Unit, b, m.Unit, gap, mark, m.Bound)
		}
	}
	fmt.Fprintf(stdout, "\nlargest gap per metric, and the bound it asks for (twice the gap, at least 0.10, at most the contract's 0.25):\n")
	for _, m := range c.EndToEnd {
		fmt.Fprintf(stdout, "  %-12s gap %.3f  bound >= %.2f  (BENCHMARK.json has %.2f)\n",
			m.Name, worst[m.Name], min(max(2*worst[m.Name], 0.10), 0.25), m.Bound)
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d of the set medians differ by more than their bound", breaches)
	}
	return nil
}
