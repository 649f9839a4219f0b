package stburst

// Coverage for the option-translation layer: the zero-value/nil paths and
// the baseline-parameter clamping branches of RegionalOptions.coreOptions
// and CombinatorialOptions.coreOptions.

import (
	"testing"

	"stburst/internal/burst"
	"stburst/internal/expect"
)

// sameBaseline drives two baselines with the same observation sequence
// and reports whether their predictions agree at every step.
func sameBaseline(a, b expect.Baseline, seq []float64) bool {
	for _, v := range seq {
		if a.Next(v) != b.Next(v) {
			return false
		}
	}
	return true
}

var probeSeq = []float64{5, 1, 2, 8, 3, 0, 4, 9, 2, 7, 6, 1}

func TestRegionalCoreOptionsNil(t *testing.T) {
	opts := (*RegionalOptions)(nil).coreOptions()
	if opts.Baseline != nil || opts.Finder != nil || opts.KeepDominated {
		t.Fatalf("nil options should map to the zero core options, got %+v", opts)
	}
}

func TestRegionalCoreOptionsZeroValue(t *testing.T) {
	opts := (&RegionalOptions{}).coreOptions()
	if opts.Baseline != nil {
		t.Fatal("running-mean default should leave Baseline nil (core installs it)")
	}
	if opts.Finder != nil {
		t.Fatal("Grid 0 should leave Finder nil (core installs the exact finder)")
	}
	if opts.KeepDominated {
		t.Fatal("zero value must not keep dominated windows")
	}
}

func TestRegionalCoreOptionsWindowMeanClamp(t *testing.T) {
	// BaselineParam < 1 clamps to a window of 4; expect.NewWindowMean(0)
	// would panic, so the clamp is what keeps the zero value usable.
	for _, param := range []float64{0, -2, 0.9} {
		o := &RegionalOptions{Baseline: BaselineWindowMean, BaselineParam: param}
		got := o.coreOptions().Baseline
		if got == nil {
			t.Fatalf("param %v: no baseline factory", param)
		}
		if !sameBaseline(got(), expect.NewWindowMean(4)(), probeSeq) {
			t.Fatalf("param %v should clamp to window 4", param)
		}
	}
	// In-range parameters pass through.
	o := &RegionalOptions{Baseline: BaselineWindowMean, BaselineParam: 3}
	if !sameBaseline(o.coreOptions().Baseline(), expect.NewWindowMean(3)(), probeSeq) {
		t.Fatal("param 3 should produce a window of 3")
	}
}

func TestRegionalCoreOptionsEWMAClamp(t *testing.T) {
	// Alpha outside (0, 1] clamps to 0.3 (expect.NewEWMA would panic).
	for _, param := range []float64{0, -1, 1.5} {
		o := &RegionalOptions{Baseline: BaselineEWMA, BaselineParam: param}
		if !sameBaseline(o.coreOptions().Baseline(), expect.NewEWMA(0.3)(), probeSeq) {
			t.Fatalf("param %v should clamp to alpha 0.3", param)
		}
	}
	o := &RegionalOptions{Baseline: BaselineEWMA, BaselineParam: 0.6}
	if !sameBaseline(o.coreOptions().Baseline(), expect.NewEWMA(0.6)(), probeSeq) {
		t.Fatal("param 0.6 should pass through")
	}
	// Alpha exactly 1 is valid (pure last-value predictor).
	o = &RegionalOptions{Baseline: BaselineEWMA, BaselineParam: 1}
	if !sameBaseline(o.coreOptions().Baseline(), expect.NewEWMA(1)(), probeSeq) {
		t.Fatal("param 1 should pass through")
	}
}

func TestRegionalCoreOptionsSeasonalClamp(t *testing.T) {
	// Period < 1 clamps to 7 (expect.NewSeasonal would panic).
	for _, param := range []float64{0, -5, 0.4} {
		o := &RegionalOptions{Baseline: BaselineSeasonal, BaselineParam: param}
		if !sameBaseline(o.coreOptions().Baseline(), expect.NewSeasonal(7)(), probeSeq) {
			t.Fatalf("param %v should clamp to period 7", param)
		}
	}
	o := &RegionalOptions{Baseline: BaselineSeasonal, BaselineParam: 3}
	if !sameBaseline(o.coreOptions().Baseline(), expect.NewSeasonal(3)(), probeSeq) {
		t.Fatal("param 3 should pass through")
	}
}

func TestRegionalCoreOptionsGridAndFlags(t *testing.T) {
	o := &RegionalOptions{Grid: 4, Bounds: Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, KeepDominated: true}
	opts := o.coreOptions()
	if opts.Finder == nil {
		t.Fatal("Grid > 0 should install a grid finder")
	}
	if !opts.KeepDominated {
		t.Fatal("KeepDominated should pass through")
	}
}

func TestCombinatorialCoreOptionsNil(t *testing.T) {
	opts := (*CombinatorialOptions)(nil).coreOptions()
	if opts.Detector != nil || opts.MaxPatterns != 0 {
		t.Fatalf("nil options should map to the zero core options, got %+v", opts)
	}
}

func TestCombinatorialCoreOptionsDefaults(t *testing.T) {
	opts := (&CombinatorialOptions{
		MinIntervalScore: 0.25,
		MinIntervalMass:  3,
		MaxPatterns:      7,
	}).coreOptions()
	det, ok := opts.Detector.(burst.Discrepancy)
	if !ok {
		t.Fatalf("default detector should be Discrepancy, got %T", opts.Detector)
	}
	if det.MinScore != 0.25 || det.MinMass != 3 {
		t.Fatalf("thresholds not passed through: %+v", det)
	}
	if opts.MaxPatterns != 7 {
		t.Fatalf("MaxPatterns = %d", opts.MaxPatterns)
	}
}

func TestCombinatorialCoreOptionsKleinberg(t *testing.T) {
	opts := (&CombinatorialOptions{
		Detector:       DetectorKleinberg,
		KleinbergS:     3,
		KleinbergGamma: 1.5,
	}).coreOptions()
	det, ok := opts.Detector.(burst.Kleinberg)
	if !ok {
		t.Fatalf("detector should be Kleinberg, got %T", opts.Detector)
	}
	if det.S != 3 || det.Gamma != 1.5 {
		t.Fatalf("Kleinberg params not passed through: %+v", det)
	}
	// Zero S/Gamma pass through here and are defaulted inside Detect.
	opts = (&CombinatorialOptions{Detector: DetectorKleinberg}).coreOptions()
	if det := opts.Detector.(burst.Kleinberg); det.S != 0 || det.Gamma != 0 {
		t.Fatalf("zero Kleinberg params should pass through: %+v", det)
	}
}

// TestNilOptionsEndToEnd exercises the nil-options path through the
// public per-term and batch miners: nil must reproduce the paper's
// defaults without panicking anywhere down the stack.
func TestNilOptionsEndToEnd(t *testing.T) {
	c := demoCollection(t)
	if len(c.RegionalPatterns("earthquake", nil)) == 0 {
		t.Fatal("nil regional options found nothing")
	}
	if len(c.CombinatorialPatterns("earthquake", nil)) == 0 {
		t.Fatal("nil combinatorial options found nothing")
	}
	if mustMine(c, KindRegional, &MineOptions{Parallelism: 2}).NumPatterns() == 0 {
		t.Fatal("nil batch regional options found nothing")
	}
	if mustMine(c, KindCombinatorial, &MineOptions{Parallelism: 2}).NumPatterns() == 0 {
		t.Fatal("nil batch combinatorial options found nothing")
	}
	// Clamped parameters survive a real mining pass end-to-end.
	clamped := &RegionalOptions{Baseline: BaselineWindowMean, BaselineParam: -1}
	if len(c.RegionalPatterns("earthquake", clamped)) == 0 {
		t.Fatal("clamped window-mean options found nothing")
	}
}
