package metrics

import (
	"log"
	"net/http"
	"sync"
	"time"
)

// HTTP is the request instrumentation the serving binaries share:
// per-route request counters by status class and latency histograms,
// plus an in-flight gauge, all registered under one name prefix
// ("stserve", "stgate") so a cluster dashboard reads every process with
// one set of queries. Route instruments are created lazily the first
// time a route is hit (one registry write-lock each, then lock-free), so
// the per-request cost is one sync.Map load plus a few atomic adds —
// recording must never show up in the latency it measures.
type HTTP struct {
	reg      *Registry
	prefix   string
	inFlight *Gauge
	// routes maps a mux pattern ("POST /v1/search"; "unmatched" when no
	// route matched) to its instruments.
	routes sync.Map // string -> *routeInstruments
	mu     sync.Mutex
}

// routeInstruments holds one route's counters (indexed by status class)
// and latency histogram.
type routeInstruments struct {
	byClass [5]*Counter // 1xx..5xx
	latency *Histogram
}

// statusClasses are the code label values, indexed by statusCode/100-1.
var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// NewHTTP registers the in-flight gauge <prefix>_http_in_flight on reg
// and returns the instrumentation; the per-route families
// <prefix>_http_request_seconds and <prefix>_http_requests_total appear
// as routes are hit.
func NewHTTP(reg *Registry, prefix string) *HTTP {
	return &HTTP{reg: reg, prefix: prefix,
		inFlight: reg.NewGauge(prefix+"_http_in_flight", "Requests currently being served.")}
}

// route returns (creating on first use) the instruments of one route.
func (h *HTTP) route(pattern string) *routeInstruments {
	if pattern == "" {
		pattern = "unmatched"
	}
	if ri, ok := h.routes.Load(pattern); ok {
		return ri.(*routeInstruments)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if ri, ok := h.routes.Load(pattern); ok { // lost the creation race
		return ri.(*routeInstruments)
	}
	ri := &routeInstruments{
		latency: h.reg.NewHistogram(h.prefix+"_http_request_seconds",
			"Request latency by route.", nil, L("route", pattern)),
	}
	for i, class := range statusClasses {
		ri.byClass[i] = h.reg.NewCounter(h.prefix+"_http_requests_total",
			"Requests served by route and status class.",
			L("route", pattern), L("code", class))
	}
	h.routes.Store(pattern, ri)
	return ri
}

// statusWriter records the response status. Unwrap keeps
// http.ResponseController (handlers lift their write deadlines through
// it) working across the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Serve serves r through next, recording in-flight depth, status class
// and latency against the matched mux pattern. The pattern is read off
// the request after routing — the mux stamps r.Pattern during the match
// — so route labels never explode on unmatched garbage paths (those all
// share the "unmatched" series).
func (h *HTTP) Serve(next http.Handler, w http.ResponseWriter, r *http.Request) {
	h.inFlight.Inc()
	defer h.inFlight.Dec()
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	next.ServeHTTP(sw, r)
	elapsed := time.Since(start).Seconds()
	status := sw.status
	if status == 0 {
		// Nothing was written: net/http will send 200 with an empty body.
		status = http.StatusOK
	}
	ri := h.route(r.Pattern)
	if cls := status/100 - 1; cls >= 0 && cls < len(ri.byClass) {
		ri.byClass[cls].Inc()
	}
	ri.latency.Observe(elapsed)
}

// ServeHTTP answers a scrape (GET /metrics) with the registry in the
// Prometheus text format.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := r.WriteText(w); err != nil {
		// The header is out; all that remains is to note the dead client.
		log.Printf("writing /metrics: %v", err)
	}
}
