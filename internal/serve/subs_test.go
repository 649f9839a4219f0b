package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stburst"
	"stburst/internal/sub"
)

// subsServer boots an ingest-enabled server with the standing-query
// surface armed, mirroring `stserve -ingest -subscriptions
// -webhook-allow-private`.
func subsServer(t *testing.T) (*stburst.Collection, *stburst.Store, *Server) {
	t.Helper()
	c := serveCollection(t)
	store, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(c, store, "")
	ing := stburst.NewIngester(store)
	s.EnableIngest(ing)
	// AllowPrivate: every test sink is an httptest server on loopback,
	// which the default webhook policy would refuse.
	s.EnableSubscriptions(sub.DispatcherOptions{AllowPrivate: true})
	t.Cleanup(func() {
		ing.Close()
		s.CloseSubscriptions()
	})
	return c, store, s
}

// do performs a request with an arbitrary method against the handler.
func do(t *testing.T, h http.Handler, method, url, body string) (int, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, url, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if len(rec.Body.Bytes()) > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: invalid JSON response %q: %v", method, url, rec.Body.String(), err)
		}
	}
	return rec.Code, out
}

// TestServerSubscriptionsDisabled: without -subscriptions every
// standing-query route is sealed with 403 and registers nothing.
func TestServerSubscriptionsDisabled(t *testing.T) {
	c := serveCollection(t)
	store := mineStore(t, c, stburst.KindRegional)
	s := New(c, store, "")
	routes := []struct{ method, url, body string }{
		{http.MethodPost, "/v1/subscriptions", `{"terms":["earthquake"]}`},
		{http.MethodGet, "/v1/subscriptions", ""},
		{http.MethodGet, "/v1/subscriptions/1", ""},
		{http.MethodDelete, "/v1/subscriptions/1", ""},
		{http.MethodGet, "/v1/alerts/stream", ""},
	}
	for _, rt := range routes {
		code, body := do(t, s, rt.method, rt.url, rt.body)
		if code != http.StatusForbidden {
			t.Errorf("%s %s without -subscriptions = %d %v, want 403", rt.method, rt.url, code, body)
		}
	}
	if store.NumSubscriptions() != 0 {
		t.Errorf("sealed surface registered %d subscriptions", store.NumSubscriptions())
	}
}

// TestServerSubscriptionCRUD drives the full registration lifecycle over
// HTTP: create (ID assigned, terms normalized), list, fetch, delete, and
// every rejection path.
func TestServerSubscriptionCRUD(t *testing.T) {
	_, store, s := subsServer(t)

	code, body := postJSON(t, s, "/v1/subscriptions",
		`{"owner":"geo-team","terms":["Earthquake Rescue"],"kind":"regional","region":{"min_x":-1,"min_y":-1,"max_x":4,"max_y":3},"min_score":0.5}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v, want 201", code, body)
	}
	id := uint64(body["id"].(float64))
	if id == 0 {
		t.Fatal("created subscription has no id")
	}
	terms, _ := body["terms"].([]any)
	if len(terms) != 2 || terms[0] != "earthquake" || terms[1] != "rescue" {
		t.Errorf("created terms %v, want tokenized [earthquake rescue]", terms)
	}
	if store.NumSubscriptions() != 1 {
		t.Errorf("store holds %d subscriptions, want 1", store.NumSubscriptions())
	}

	// Rejections: bad JSON, unknown field, no terms, bad webhook, bad
	// kind, client-supplied id.
	for name, bad := range map[string]string{
		"not json":      `nope`,
		"unknown field": `{"terms":["a"],"priority":9}`,
		"no terms":      `{"owner":"x"}`,
		"bad webhook":   `{"terms":["a"],"webhook":"ftp://host/x"}`,
		"bad kind":      `{"terms":["a"],"kind":"sideways"}`,
		"explicit id":   `{"id":7,"terms":["a"]}`,
	} {
		if code, resp := postJSON(t, s, "/v1/subscriptions", bad); code != http.StatusBadRequest {
			t.Errorf("%s: create = %d %v, want 400", name, code, resp)
		}
	}
	if store.NumSubscriptions() != 1 {
		t.Errorf("rejected creates registered subscriptions: %d", store.NumSubscriptions())
	}

	// List and fetch.
	code, body = get(t, s, "/v1/subscriptions")
	if code != http.StatusOK || int(body["count"].(float64)) != 1 {
		t.Fatalf("list = %d %v, want count 1", code, body)
	}
	code, body = get(t, s, fmt.Sprintf("/v1/subscriptions/%d", id))
	if code != http.StatusOK || uint64(body["id"].(float64)) != id || body["owner"] != "geo-team" {
		t.Errorf("fetch = %d %v, want the stored subscription", code, body)
	}
	if code, body := get(t, s, "/v1/subscriptions/9999"); code != http.StatusNotFound {
		t.Errorf("fetch of unknown id = %d %v, want 404", code, body)
	}
	if code, body := get(t, s, "/v1/subscriptions/zero"); code != http.StatusBadRequest {
		t.Errorf("fetch of garbage id = %d %v, want 400", code, body)
	}

	// Delete, then the id is gone.
	code, body = do(t, s, http.MethodDelete, fmt.Sprintf("/v1/subscriptions/%d", id), "")
	if code != http.StatusOK || body["deleted"] != true {
		t.Fatalf("delete = %d %v, want 200 deleted", code, body)
	}
	if code, _ := do(t, s, http.MethodDelete, fmt.Sprintf("/v1/subscriptions/%d", id), ""); code != http.StatusNotFound {
		t.Errorf("second delete = %d, want 404", code)
	}
	if store.NumSubscriptions() != 0 {
		t.Errorf("store holds %d subscriptions after delete, want 0", store.NumSubscriptions())
	}
}

// TestServerAlertWebhookDelivery closes the push loop over HTTP:
// register a subscription with a webhook, ingest a matching batch, and
// assert the sink receives one batched POST whose body carries the
// alerts — then that /v1/stats and /metrics agree with what arrived.
func TestServerAlertWebhookDelivery(t *testing.T) {
	_, _, s := subsServer(t)

	type received struct {
		body alertBatchJSON
	}
	got := make(chan received, 16)
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b alertBatchJSON
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		got <- received{body: b}
	}))
	defer sink.Close()

	code, body := postJSON(t, s, "/v1/subscriptions",
		`{"owner":"geo-team","terms":["earthquake"],"webhook":"`+sink.URL+`"}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v, want 201", code, body)
	}
	subID := uint64(body["id"].(float64))

	code, body = postJSON(t, s, "/v1/documents",
		`{"documents":[{"stream":"lima","time":6,"text":"earthquake rescue teams earthquake aftermath"}]}`)
	if code != http.StatusAccepted || body["flushed"] != true {
		t.Fatalf("ingest = %d %v, want a flushed 202", code, body)
	}
	gen := uint64(body["generation"].(float64))

	var first received
	select {
	case first = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("webhook sink never received an alert batch")
	}
	b := first.body
	if b.SubscriptionID != subID || b.Owner != "geo-team" || b.Generation != gen {
		t.Errorf("batch header = %+v, want subscription %d owner geo-team generation %d", b, subID, gen)
	}
	if b.Count != len(b.Alerts) || b.Count == 0 {
		t.Fatalf("batch count %d with %d alerts", b.Count, len(b.Alerts))
	}
	for _, a := range b.Alerts {
		if a.Term != "earthquake" || a.SubscriptionID != subID || a.Patterns == 0 {
			t.Errorf("alert %+v, want earthquake matches for subscription %d", a, subID)
		}
	}

	// The dispatcher's counters drain asynchronously of the sink's
	// handler returning; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	var ds sub.DispatcherStats
	for {
		ds = s.dispatcher.Stats()
		if ds.DeliveredBatches >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ds.DeliveredBatches == 0 || ds.DeliveredAlerts != uint64(b.Count) {
		t.Errorf("dispatcher stats %+v, want %d delivered alerts", ds, b.Count)
	}

	// /v1/stats and /metrics report the same accounting.
	code, body = get(t, s, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	subsStats := body["subscriptions"].(map[string]any)
	if subsStats["enabled"] != true || int(subsStats["count"].(float64)) != 1 {
		t.Errorf("stats subscriptions %v, want enabled with 1 registered", subsStats)
	}
	if int(subsStats["matched_alerts"].(float64)) != b.Count {
		t.Errorf("stats matched_alerts %v, want %d", subsStats["matched_alerts"], b.Count)
	}
	if int(subsStats["delivered_alerts"].(float64)) != b.Count {
		t.Errorf("stats delivered_alerts %v, want %d", subsStats["delivered_alerts"], b.Count)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	text := rec.Body.String()
	for _, want := range []string{
		"stserve_subscriptions 1",
		fmt.Sprintf("stserve_alerts_matched_total %d", b.Count),
		fmt.Sprintf("stserve_alerts_delivered_total %d", b.Count),
		"stserve_alerts_dropped_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(text, "stserve_alert_delivery_seconds_count 1") {
		t.Errorf("/metrics missing a delivery-latency observation")
	}
}

// TestServerAlertWebhookDrop: a webhook that always fails burns its
// retries and the alerts land in the dropped counters, never blocking
// the ingest response.
func TestServerAlertWebhookDrop(t *testing.T) {
	_, _, s := subsServer(t)
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer sink.Close()

	if code, body := postJSON(t, s, "/v1/subscriptions",
		`{"terms":["earthquake"],"webhook":"`+sink.URL+`"}`); code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, body)
	}
	if code, body := postJSON(t, s, "/v1/documents",
		`{"documents":[{"stream":"quito","time":6,"text":"earthquake tremors again earthquake"}]}`); code != http.StatusAccepted {
		t.Fatalf("ingest = %d %v", code, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ds := s.dispatcher.Stats()
		if ds.DroppedBatches >= 1 {
			if ds.DroppedAlerts == 0 || ds.DeliveredBatches != 0 {
				t.Errorf("dispatcher stats %+v, want only drops", ds)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("failing webhook never registered a drop: %+v", ds)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sseClient connects to /v1/alerts/stream on a live test server and
// feeds every SSE line to a channel, so tests can await events with a
// timeout instead of blocking on a socket read.
func sseClient(t *testing.T, url string) (lines <-chan string, closeFn func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/alerts/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /v1/alerts/stream = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("stream Content-Type %q, want text/event-stream", ct)
	}
	ch := make(chan string, 64)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			ch <- sc.Text()
		}
	}()
	return ch, func() { resp.Body.Close() }
}

// awaitLine reads lines until one has the given prefix or the timeout
// elapses.
func awaitLine(t *testing.T, lines <-chan string, prefix string) string {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed before a %q line", prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return line
			}
		case <-deadline:
			t.Fatalf("no %q line within the deadline", prefix)
		}
	}
}

// TestServerAlertSSE: a connected stream client receives the connected
// comment immediately and, after a matching ingest, one alert event
// whose data payload is the same batch shape the webhook gets.
func TestServerAlertSSE(t *testing.T) {
	_, _, s := subsServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	lines, closeStream := sseClient(t, srv.URL)
	defer closeStream()
	awaitLine(t, lines, ": connected")

	code, body := postJSON(t, s, "/v1/subscriptions", `{"owner":"sse","terms":["earthquake"]}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, body)
	}
	subID := uint64(body["id"].(float64))

	if code, body := postJSON(t, s, "/v1/documents",
		`{"documents":[{"stream":"lima","time":7,"text":"earthquake damage survey earthquake"}]}`); code != http.StatusAccepted {
		t.Fatalf("ingest = %d %v", code, body)
	}

	awaitLine(t, lines, "event: alert")
	data := awaitLine(t, lines, "data: ")
	var batch alertBatchJSON
	if err := json.Unmarshal([]byte(strings.TrimPrefix(data, "data: ")), &batch); err != nil {
		t.Fatalf("event payload %q: %v", data, err)
	}
	if batch.SubscriptionID != subID || batch.Owner != "sse" || batch.Count == 0 {
		t.Errorf("event batch %+v, want subscription %d with alerts", batch, subID)
	}
	for _, a := range batch.Alerts {
		if a.Term != "earthquake" {
			t.Errorf("event alert %+v, want term earthquake", a)
		}
	}
}

// flushProbe is a ResponseWriter that runs onFlush at every flush, the
// moment bytes reach the client. The deadline setters make
// http.ResponseController's calls succeed on a recorder.
type flushProbe struct {
	*httptest.ResponseRecorder
	onFlush func()
}

func (f *flushProbe) Flush() {
	f.onFlush()
	f.ResponseRecorder.Flush()
}

func (f *flushProbe) SetReadDeadline(time.Time) error  { return nil }
func (f *flushProbe) SetWriteDeadline(time.Time) error { return nil }

// TestServerAlertSSESubscribedBeforeConnected: when the opening
// ": connected" line is flushed to a stream client, the client is
// already a broker client, so no alert published after the client has
// read that line can miss it. The check runs inside the flush itself,
// so it needs no timing.
func TestServerAlertSSESubscribedBeforeConnected(t *testing.T) {
	_, _, s := subsServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clients := -1
	w := &flushProbe{ResponseRecorder: httptest.NewRecorder(), onFlush: func() {
		if clients < 0 {
			clients = s.broker.Clients()
			cancel() // ends the stream
		}
	}}
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/alerts/stream", nil).WithContext(ctx))
	if body := w.Body.String(); !strings.HasPrefix(body, ": connected") {
		t.Fatalf("stream body %q, want the connected comment first", body)
	}
	if clients != 1 {
		t.Fatalf("broker clients when the connected line was flushed = %d, want 1", clients)
	}
}

// TestServerConcurrentIngestCRUDSSE is the race case the issue asks for:
// ingest batches, subscription CRUD and SSE readers all running at once.
// Run under -race (the Makefile's race target covers this package) it
// proves the registry, matcher, broker and dispatcher share no unguarded
// state.
func TestServerConcurrentIngestCRUDSSE(t *testing.T) {
	_, _, s := subsServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	// A webhook sink that just counts.
	var sunk atomic.Int64
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sunk.Add(1)
	}))
	defer sink.Close()

	// One durable subscription so ingests always match something.
	if code, body := postJSON(t, s, "/v1/subscriptions",
		`{"terms":["earthquake"],"webhook":"`+sink.URL+`"}`); code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, body)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Two SSE clients drain the firehose for the duration.
	for i := 0; i < 2; i++ {
		lines, closeStream := sseClient(t, srv.URL)
		defer closeStream()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case _, ok := <-lines:
					if !ok {
						return
					}
				}
			}
		}()
	}

	// CRUD churn: register and delete short-lived subscriptions.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code, body := postJSON(t, s, "/v1/subscriptions", `{"terms":["earthquake","rescue"]}`)
				if code != http.StatusCreated {
					t.Errorf("concurrent create = %d %v", code, body)
					return
				}
				id := uint64(body["id"].(float64))
				if code, _ := get(t, s, "/v1/subscriptions"); code != http.StatusOK {
					t.Error("concurrent list failed")
					return
				}
				if code, _ := do(t, s, http.MethodDelete, fmt.Sprintf("/v1/subscriptions/%d", id), ""); code != http.StatusOK {
					t.Errorf("concurrent delete of %d failed", id)
					return
				}
			}
		}()
	}

	// The ingest hammer drives matching on every ingest.
	for i := 0; i < 12; i++ {
		code, body := postJSON(t, s, "/v1/documents",
			`{"documents":[{"stream":"tokyo","time":9,"text":"earthquake rescue crews earthquake"}]}`)
		if code != http.StatusAccepted {
			t.Fatalf("ingest %d = %d %v", i, code, body)
		}
	}
	close(stop)
	wg.Wait()

	if got := s.alertsMatched.Load(); got == 0 {
		t.Error("no alerts matched across 12 matching ingests")
	}
}

// TestServerRejectsPrivateWebhook: with the default webhook policy, a
// subscription naming a loopback, private-range or metadata-endpoint
// target in its URL is refused at registration with 400 — the
// unauthenticated surface must not become a blind-SSRF POST proxy.
func TestServerRejectsPrivateWebhook(t *testing.T) {
	c := serveCollection(t)
	store := mineStore(t, c, stburst.KindRegional)
	s := New(c, store, "")
	s.EnableSubscriptions(sub.DispatcherOptions{})
	t.Cleanup(s.CloseSubscriptions)

	for _, hook := range []string{
		"http://127.0.0.1:9999/hook",
		"http://localhost/hook",
		"http://169.254.169.254/latest/meta-data/",
		"http://10.0.0.5/hook",
		"http://[::1]:8080/hook",
	} {
		code, body := postJSON(t, s, "/v1/subscriptions",
			fmt.Sprintf(`{"terms":["earthquake"],"webhook":%q}`, hook))
		if code != http.StatusBadRequest {
			t.Errorf("private webhook %s = %d %v, want 400", hook, code, body)
		}
	}
	if store.NumSubscriptions() != 0 {
		t.Errorf("refused webhooks still registered %d subscriptions", store.NumSubscriptions())
	}
	// A public hostname passes registration; resolution is the dial
	// guard's problem.
	code, body := postJSON(t, s, "/v1/subscriptions",
		`{"terms":["earthquake"],"webhook":"https://hooks.example.com/alerts"}`)
	if code != http.StatusCreated {
		t.Errorf("public webhook = %d %v, want 201", code, body)
	}
}

// TestServerSubscriptionLimit: past the registry's limit the create
// route answers 429, existing subscriptions survive, and deleting one
// frees a slot.
func TestServerSubscriptionLimit(t *testing.T) {
	_, store, s := subsServer(t)
	store.SetSubscriptionLimit(2)

	for i := 0; i < 2; i++ {
		code, body := postJSON(t, s, "/v1/subscriptions", `{"terms":["earthquake"]}`)
		if code != http.StatusCreated {
			t.Fatalf("create %d = %d %v, want 201", i, code, body)
		}
	}
	code, body := postJSON(t, s, "/v1/subscriptions", `{"terms":["rescue"]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("create past limit = %d %v, want 429", code, body)
	}
	if store.NumSubscriptions() != 2 {
		t.Fatalf("store holds %d subscriptions, want 2", store.NumSubscriptions())
	}
	if code, _ := do(t, s, http.MethodDelete, "/v1/subscriptions/1", ""); code != http.StatusOK {
		t.Fatalf("delete = %d, want 200", code)
	}
	if code, body := postJSON(t, s, "/v1/subscriptions", `{"terms":["rescue"]}`); code != http.StatusCreated {
		t.Fatalf("create after delete = %d %v, want 201", code, body)
	}
}
