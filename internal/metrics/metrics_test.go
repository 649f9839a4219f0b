package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the boundary semantics: an
// observation equal to a bucket's upper bound lands in that bucket
// (Prometheus "le" = less-or-equal), one just above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{1, 2.5, 5, 10}
	cases := []struct {
		v      float64
		bucket int // index into counts (len(bounds)+1 buckets)
	}{
		{-1, 0}, // below everything still lands in the first bucket
		{0, 0},
		{0.999, 0},
		{1, 0}, // le="1" includes 1 exactly
		{1.0001, 1},
		{2.5, 1},
		{2.50001, 2},
		{5, 2},
		{7, 3},
		{10, 3},
		{10.1, 4}, // overflow bucket
		{math.Inf(1), 4},
	}
	for _, tc := range cases {
		h := NewHistogram("test", bounds)
		h.Observe(tc.v)
		for i := range h.counts {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if got := h.counts[i].Load(); got != want {
				t.Errorf("Observe(%v): bucket[%d] = %d, want %d", tc.v, i, got, want)
			}
		}
		if h.Count() != 1 {
			t.Errorf("Observe(%v): count = %d, want 1", tc.v, h.Count())
		}
	}
}

func TestHistogramTrailingInfBoundDropped(t *testing.T) {
	h := NewHistogram("test", []float64{1, 2, math.Inf(1)})
	if len(h.bounds) != 2 {
		t.Fatalf("explicit +Inf bound kept: bounds = %v", h.bounds)
	}
	if len(h.counts) != 3 {
		t.Fatalf("want 3 buckets (2 finite + overflow), got %d", len(h.counts))
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram("test", []float64{1, 10})
	for _, v := range []float64{0.5, 2, 4, 20} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 26.5 {
		t.Errorf("sum = %v, want 26.5", h.Sum())
	}
	if h.Min() != 0.5 || h.Max() != 20 {
		t.Errorf("min/max = %v/%v, want 0.5/20", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 26.5/4 {
		t.Errorf("mean = %v, want %v", got, 26.5/4)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram("test", nil)
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty histogram Quantile(0.5) = %v, want NaN", q)
	}
	if q := h.Quantile(-0.1); !math.IsNaN(q) {
		t.Errorf("Quantile(-0.1) = %v, want NaN", q)
	}
	if q := h.Quantile(1.5); !math.IsNaN(q) {
		t.Errorf("Quantile(1.5) = %v, want NaN", q)
	}
}

// TestHistogramQuantileErrorBound feeds deterministic pseudo-random
// samples into a histogram and checks the interpolated quantile against
// the exact order statistic: the estimate must lie inside the bucket
// holding the exact value, i.e. the error is bounded by that bucket's
// width — the advertised accuracy contract.
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := []struct {
		name string
		draw func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() * 2 }},
		{"exponential", func() float64 { return rng.ExpFloat64() * 0.01 }},
		{"lognormal-ish", func() float64 { return math.Exp(rng.NormFloat64()*1.5 - 6) }},
	}
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			h := NewHistogram("test", DefLatencyBuckets)
			samples := make([]float64, 20000)
			for i := range samples {
				samples[i] = d.draw()
				h.Observe(samples[i])
			}
			sort.Float64s(samples)
			for _, q := range quantiles {
				exact := samples[int(math.Min(q*float64(len(samples)), float64(len(samples)-1)))]
				est := h.Quantile(q)
				lo, hi := bucketOf(DefLatencyBuckets, exact)
				// The overflow bucket has no finite bound: the histogram
				// answers with its tracked max, which is exact at q=1 and
				// an upper bound elsewhere.
				if math.IsInf(hi, 1) {
					hi = h.Max()
				}
				if est < lo-1e-12 || est > hi+1e-12 {
					t.Errorf("q=%v: estimate %v outside bucket [%v, %v] of exact %v",
						q, est, lo, hi, exact)
				}
			}
		})
	}
}

// bucketOf returns the [lo, hi] bounds of the bucket holding v.
func bucketOf(bounds []float64, v float64) (lo, hi float64) {
	i := sort.SearchFloat64s(bounds, v)
	lo = 0
	if i > 0 {
		lo = bounds[i-1]
	}
	if i == len(bounds) {
		return lo, math.Inf(1)
	}
	return lo, bounds[i]
}

// TestConcurrentWriters hammers every instrument type from many
// goroutines; run under -race this is the data-race proof, and the final
// values prove no update was lost.
func TestConcurrentWriters(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "counter")
	g := reg.NewGauge("g", "gauge")
	h := reg.NewHistogram("h_seconds", "histogram", []float64{0.25, 0.5, 0.75})

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(rng.Float64())
				if i%100 == 0 {
					// Concurrent scrape while writers run.
					var sb strings.Builder
					if err := reg.WriteText(&sb); err != nil {
						t.Errorf("WriteText: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	var bucketSum uint64
	for i := range h.counts {
		bucketSum += h.counts[i].Load()
	}
	if bucketSum != workers*perWorker {
		t.Errorf("bucket sum = %d, want %d", bucketSum, workers*perWorker)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "help")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter after Add(-3) = %d, want 5", c.Value())
	}
}

func TestRegistryRejectsTypeConflict(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter family name did not panic")
		}
	}()
	r.NewGauge("m", "help")
}

// TestWriteTextGolden pins the exposition format byte for byte: HELP and
// TYPE once per family, series in registration order, histogram buckets
// cumulative with an +Inf terminator, label sets rendered in the given
// order.
func TestWriteTextGolden(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewCounter("http_requests_total", "Requests served.", L("route", "/v1/search"), L("code", "2xx"))
	b := reg.NewCounter("http_requests_total", "Requests served.", L("route", "/v1/search"), L("code", "4xx"))
	g := reg.NewGauge("http_in_flight", "In-flight requests.")
	reg.NewGaugeFunc("uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	h := reg.NewHistogram("request_seconds", "Request latency.", []float64{0.001, 0.01, 0.1}, L("route", "/v1/search"))

	a.Add(41)
	a.Inc()
	b.Inc()
	g.Set(3)
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 7} {
		h.Observe(v)
	}

	want := strings.Join([]string{
		`# HELP http_requests_total Requests served.`,
		`# TYPE http_requests_total counter`,
		`http_requests_total{route="/v1/search",code="2xx"} 42`,
		`http_requests_total{route="/v1/search",code="4xx"} 1`,
		`# HELP http_in_flight In-flight requests.`,
		`# TYPE http_in_flight gauge`,
		`http_in_flight 3`,
		`# HELP uptime_seconds Uptime.`,
		`# TYPE uptime_seconds gauge`,
		`uptime_seconds 12.5`,
		`# HELP request_seconds Request latency.`,
		`# TYPE request_seconds histogram`,
		`request_seconds_bucket{route="/v1/search",le="0.001"} 1`,
		`request_seconds_bucket{route="/v1/search",le="0.01"} 3`,
		`request_seconds_bucket{route="/v1/search",le="0.1"} 4`,
		`request_seconds_bucket{route="/v1/search",le="+Inf"} 5`,
		`request_seconds_sum 7.0545`,
		`request_seconds_count 5`,
	}, "\n") + "\n"
	// The sum line carries the histogram's labels too.
	want = strings.ReplaceAll(want,
		"request_seconds_sum 7.0545",
		`request_seconds_sum{route="/v1/search"} 7.0545`)
	want = strings.ReplaceAll(want,
		"request_seconds_count 5",
		`request_seconds_count{route="/v1/search"} 5`)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestQuantileSingleValue(t *testing.T) {
	h := NewHistogram("test", []float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	// Every observation is exactly 3: min/max clamping must collapse the
	// interpolation to the true value regardless of bucket width.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 3 {
			t.Errorf("Quantile(%v) = %v, want 3", q, got)
		}
	}
}
