package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

// TestContractNames keeps BENCHMARK.json and the program in step: the
// same four workloads, the same five end-to-end metrics, and every
// per-layer metric the program can report except par.speedup, which it
// refuses below speedupMinProcs and so cannot promise.
func TestContractNames(t *testing.T) {
	c, err := readContract(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	if len(c.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(c.EndToEnd), len(endToEndDefs))
	}
	for i, m := range c.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
		if m.Bound < 0.10 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0.10, 0.25]", m.Name, m.Bound)
		}
	}
	var want []metricDef
	for _, d := range perLayerDefs {
		if d.Name != "par.speedup" {
			want = append(want, d)
		}
	}
	if len(c.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(c.PerLayer), len(want))
	}
	for i, m := range c.PerLayer {
		if d := want[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
}

// TestSmoke runs all four workloads at the smoke sizing and checks what
// the driver will check: every end-to-end metric present, finite and
// positive, and no failed op.
func TestSmoke(t *testing.T) { smoke(t, false) }

// TestSmokeTraced does the same with the traced pass after the untraced
// one: every per-layer metric a workload reports is defined and finite.
func TestSmokeTraced(t *testing.T) { smoke(t, true) }

func smoke(t *testing.T, traced bool) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	c, err := readContract(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			tracePath := ""
			if traced {
				tracePath = filepath.Join(dir, "trace.json")
			}
			res, err := runWorkload(name, 1, smokeSizing, 100*time.Millisecond, tracePath, dir, now())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.Errors)
			}
			for _, m := range c.EndToEnd {
				got, ok := res.EndToEnd[m.Name]
				if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value <= 0 {
					t.Errorf("%s = %v (present %v), want finite and positive", m.Name, got.Value, ok)
				}
				if got.Unit != m.Unit {
					t.Errorf("%s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				}
			}
			if traced && len(res.PerLayer) == 0 {
				t.Error("the traced pass reported no per-layer metric")
			}
			for name, m := range res.PerLayer {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer %s = %v", name, m.Value)
				}
			}
		})
	}
}

// TestOpListIsAFunctionOfTheSeed: equal seeds give equal op lists, and
// the next seed a different one.
func TestOpListIsAFunctionOfTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("mines a corpus per workload and seed")
	}
	fingerprint := func(name string, seed int64) string {
		w, err := newWorkload(name, &env{seed: seed, size: smokeSizing, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if err := w.prepare(); err != nil {
			t.Fatal(err)
		}
		return w.plan().Fingerprint
	}
	for _, name := range workloadNames {
		a, b, c := fingerprint(name, 1), fingerprint(name, 1), fingerprint(name, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave op lists %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op list %s", name, a)
		}
	}
}
