package sub

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Batch is one delivery unit: every alert a single ingest produced for
// a single subscription, already marshaled by the caller. Batching is
// the fan-out contract — one ingest matching N patterns for one
// subscriber costs one POST and one SSE event, not N.
type Batch struct {
	// SubscriptionID identifies the subscriber the batch belongs to.
	SubscriptionID uint64
	// URL is the webhook target; empty batches are SSE-only.
	URL string
	// Alerts counts the alerts inside Body, for accounting.
	Alerts int
	// Body is the JSON payload to POST / stream.
	Body []byte
}

// DispatcherStats is a point-in-time snapshot of delivery accounting.
type DispatcherStats struct {
	// DeliveredBatches / DeliveredAlerts count successful webhook POSTs
	// and the alerts they carried.
	DeliveredBatches uint64
	DeliveredAlerts  uint64
	// DroppedBatches / DroppedAlerts count batches abandoned because
	// the queue was full or every retry failed.
	DroppedBatches uint64
	DroppedAlerts  uint64
}

// The dispatcher's delivery policy. workers POSTs run at once and
// queueLen batches wait behind them; past that the newest batch is
// dropped rather than stalling ingest. A batch is attempted retries
// times, sleeping backoff after the first failure and doubling it per
// retry, and every POST, dial included, is bounded by timeout, so a dead
// sink holds a worker for at most three timeouts plus 300 ms of sleep.
const (
	workers  = 4
	queueLen = 256
	retries  = 3
	backoff  = 100 * time.Millisecond
	timeout  = 5 * time.Second
)

// DispatcherOptions configure the webhook dispatcher; the zero value is
// the production policy.
type DispatcherOptions struct {
	// AllowPrivate permits deliveries to loopback, private (RFC
	// 1918/4193) and link-local addresses. Off by default: the
	// subscription surface is unauthenticated, and a webhook aimed at
	// the server's own network would otherwise turn it into a blind-SSRF
	// POST proxy (see policy.go). Enable for local development and
	// tests only.
	AllowPrivate bool
	// OnDelivery, when non-nil, observes the wall-clock seconds each
	// successful delivery took (queue wait + POST), feeding the
	// latency histogram.
	OnDelivery func(seconds float64)
}

// Dispatcher POSTs alert batches to subscriber webhooks from a bounded
// queue with bounded retry — delivery is at-most-once per batch, and
// a slow or dead sink can never back-pressure the ingest path.
type Dispatcher struct {
	opts   DispatcherOptions
	client *http.Client
	queue  chan queued
	wg     sync.WaitGroup
	// mu serializes Enqueue's channel send against Close's channel
	// close: Enqueue holds the read lock across its closed-check and
	// send, so Close (write lock) can never close the queue between the
	// two — the send-on-closed-channel panic an atomic flag alone would
	// allow.
	mu     sync.RWMutex
	closed bool

	deliveredBatches atomic.Uint64
	deliveredAlerts  atomic.Uint64
	droppedBatches   atomic.Uint64
	droppedAlerts    atomic.Uint64
}

type queued struct {
	b        Batch
	enqueued time.Time
}

// NewDispatcher starts the delivery workers.
func NewDispatcher(opts DispatcherOptions) *Dispatcher {
	d := &Dispatcher{opts: opts, client: &http.Client{Timeout: timeout}}
	if !opts.AllowPrivate {
		// Enforce the webhook target policy post-resolution: the
		// Control hook sees the literal IP being dialed, so a DNS
		// name resolving to a private range is refused even though
		// registration-time validation could only see the name.
		dialer := &net.Dialer{Timeout: timeout, Control: guardDial}
		d.client.Transport = &http.Transport{DialContext: dialer.DialContext}
	}
	d.queue = make(chan queued, queueLen)
	d.wg.Add(workers)
	for range workers {
		go d.worker()
	}
	return d
}

// Enqueue hands a batch to the delivery workers without blocking: when
// the queue is full the batch is dropped and counted, keeping ingest
// latency independent of sink health.
func (d *Dispatcher) Enqueue(b Batch) {
	if b.URL == "" {
		return
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return
	}
	select {
	case d.queue <- queued{b: b, enqueued: time.Now()}:
	default:
		d.droppedBatches.Add(1)
		d.droppedAlerts.Add(uint64(b.Alerts))
	}
}

// Stats snapshots the delivery counters.
func (d *Dispatcher) Stats() DispatcherStats {
	return DispatcherStats{
		DeliveredBatches: d.deliveredBatches.Load(),
		DeliveredAlerts:  d.deliveredAlerts.Load(),
		DroppedBatches:   d.droppedBatches.Load(),
		DroppedAlerts:    d.droppedAlerts.Load(),
	}
}

// Close stops accepting batches, drains the queue and waits for the
// workers to finish their in-flight deliveries. Safe to call
// concurrently with Enqueue (late batches are silently refused) and
// idempotent.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	close(d.queue)
	d.mu.Unlock()
	d.wg.Wait()
}

func (d *Dispatcher) worker() {
	defer d.wg.Done()
	for q := range d.queue {
		if d.deliver(q.b) {
			d.deliveredBatches.Add(1)
			d.deliveredAlerts.Add(uint64(q.b.Alerts))
			if d.opts.OnDelivery != nil {
				d.opts.OnDelivery(time.Since(q.enqueued).Seconds())
			}
		} else {
			d.droppedBatches.Add(1)
			d.droppedAlerts.Add(uint64(q.b.Alerts))
		}
	}
}

// deliver attempts the POST up to retries times with doubling backoff.
// Any 2xx is success; everything else (including transport errors)
// retries until attempts run out.
func (d *Dispatcher) deliver(b Batch) bool {
	wait := backoff
	for attempt := range retries {
		if attempt > 0 {
			time.Sleep(wait)
			wait *= 2
		}
		if d.post(b) {
			return true
		}
	}
	return false
}

func (d *Dispatcher) post(b Batch) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.URL, bytes.NewReader(b.Body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// Broker fans alert batches out to SSE clients. Publish never blocks:
// each client has a bounded buffer and a client that falls behind has
// events dropped (counted per client) rather than stalling ingest or
// other clients.
type Broker struct {
	mu      sync.Mutex
	nextID  uint64
	clients map[uint64]*client
	dropped atomic.Uint64
}

type client struct {
	ch chan []byte
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{clients: make(map[uint64]*client)}
}

// Subscribe registers an SSE client and returns its event channel and
// a cancel function. buffer bounds how many pending events the client
// may lag before events are dropped.
func (b *Broker) Subscribe(buffer int) (<-chan []byte, func()) {
	if buffer <= 0 {
		buffer = 16
	}
	c := &client{ch: make(chan []byte, buffer)}
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	b.clients[id] = c
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		if _, ok := b.clients[id]; ok {
			delete(b.clients, id)
			close(c.ch)
		}
		b.mu.Unlock()
	}
	return c.ch, cancel
}

// Publish fans one event body out to every connected client,
// non-blocking; full client buffers drop the event for that client.
func (b *Broker) Publish(body []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.clients {
		select {
		case c.ch <- body:
		default:
			b.dropped.Add(1)
		}
	}
}

// Clients returns the number of connected SSE clients.
func (b *Broker) Clients() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.clients)
}

// Dropped returns the number of events dropped on full client buffers.
func (b *Broker) Dropped() uint64 {
	return b.dropped.Load()
}

// FormatEvent renders one SSE frame ("event: alert\ndata: ...\n\n").
// The body must be a single line (compact JSON).
func FormatEvent(body []byte) []byte {
	return []byte(fmt.Sprintf("event: alert\ndata: %s\n\n", body))
}
