package gate

import (
	"time"

	"stburst/internal/metrics"
)

// observer is the gateway's metrics surface, shaped like stserve's so a
// cluster dashboard reads both with one set of queries: the shared
// per-route request instrumentation (metrics.HTTP), fan-out latency by
// path (forward, or scatter: a search that shipped at least one foreign
// term's patterns), per-member upstream counters, and
// member-state gauges. Member instruments are created eagerly (the
// member set is fixed for the gateway's life).
type observer struct {
	s       *metrics.Registry
	http    *metrics.HTTP
	fanouts map[string]*metrics.Histogram
	members map[string]*upstreamInstruments
}

// upstreamInstruments counts one member's upstream traffic.
type upstreamInstruments struct {
	reqs *metrics.Counter
	errs *metrics.Counter
}

func newObserver(g *Gateway) *observer {
	o := &observer{s: metrics.NewRegistry()}
	o.http = metrics.NewHTTP(o.s, "stgate")
	o.s.NewGaugeFunc("stgate_uptime_seconds",
		"Seconds since the gateway was wired.",
		func() float64 { return time.Since(g.started).Seconds() })
	o.s.NewGaugeFunc("stgate_members",
		"Members in the gateway's table.",
		func() float64 { return float64(len(g.members)) })
	countState := func(want memberState) func() float64 {
		return func() float64 {
			n := 0
			for _, m := range g.members {
				m.mu.Lock()
				s := m.state()
				m.mu.Unlock()
				if s == want {
					n++
				}
			}
			return float64(n)
		}
	}
	o.s.NewGaugeFunc("stgate_members_degraded",
		"Members with recent failures whose last known identity still stands.",
		countState(stateDegraded))
	o.s.NewGaugeFunc("stgate_members_down",
		"Members never polled successfully or past the failure threshold.",
		countState(stateDown))
	o.fanouts = map[string]*metrics.Histogram{
		"forward": o.s.NewHistogram("stgate_fanout_seconds",
			"Upstream fan-out latency of a search, by dispatch path.",
			nil, metrics.L("path", "forward")),
		"scatter": o.s.NewHistogram("stgate_fanout_seconds",
			"Upstream fan-out latency of a search, by dispatch path.",
			nil, metrics.L("path", "scatter")),
	}
	o.members = make(map[string]*upstreamInstruments, len(g.members))
	for _, m := range g.members {
		o.members[m.url] = &upstreamInstruments{
			reqs: o.s.NewCounter("stgate_upstream_requests_total",
				"Requests sent to one member.", metrics.L("member", m.url)),
			errs: o.s.NewCounter("stgate_upstream_errors_total",
				"Transport failures talking to one member.", metrics.L("member", m.url)),
		}
	}
	return o
}

// fanout returns the fan-out histogram of one dispatch path.
func (o *observer) fanout(path string) *metrics.Histogram { return o.fanouts[path] }

// upstream returns one member's upstream instruments.
func (o *observer) upstream(url string) *upstreamInstruments { return o.members[url] }

// Registry exposes the gateway's metrics registry for in-process tests.
func (g *Gateway) Registry() *metrics.Registry { return g.obs.s }
