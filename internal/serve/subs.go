package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"stburst"
	"stburst/internal/sub"
)

// This file is the HTTP face of the standing-query subsystem: the
// /v1/subscriptions CRUD routes, the /v1/alerts/stream SSE feed, and the
// alert sink that fans one ingest's matches out to webhook delivery and
// connected stream clients. The store owns matching (Store.Subscribe and
// the post-ingest matcher); this layer owns registration plumbing and
// delivery only.

// EnableSubscriptions arms the standing-query surface: the CRUD routes
// and the SSE feed start answering, a webhook dispatcher and an SSE
// broker are started, and the store's alert sink is pointed at them.
// Call before serving traffic, like EnableIngest. opts carries the
// webhook target policy (AllowPrivate); its OnDelivery hook is replaced
// with the delivery-latency histogram.
func (s *Server) EnableSubscriptions(opts sub.DispatcherOptions) {
	s.allowPrivateHooks = opts.AllowPrivate
	s.broker = sub.NewBroker()
	opts.OnDelivery = s.obs.alertLatency.Observe
	s.dispatcher = sub.NewDispatcher(opts)
	s.store.SetAlertSink(s.deliverAlerts)
}

// CloseSubscriptions detaches the alert sink and drains the webhook
// dispatcher — in-flight deliveries finish, queued batches are POSTed.
// Safe to call when subscriptions were never enabled.
func (s *Server) CloseSubscriptions() {
	if s.dispatcher == nil {
		return
	}
	s.store.SetAlertSink(nil)
	s.dispatcher.Close()
}

// requireSubs seals the standing-query routes with 403 until the
// operator opts in, exactly as the write surface does: the /v1 API is
// unauthenticated, and registering webhooks on someone else's server
// must not be the default.
func (s *Server) requireSubs(w http.ResponseWriter) bool {
	if s.dispatcher == nil {
		WriteError(w, http.StatusForbidden, "subscriptions are disabled; start stserve with -subscriptions")
		return false
	}
	return true
}

// handleSubscriptionCreate answers POST /v1/subscriptions: the body is
// the stburst.Subscription JSON shape minus the ID (the server assigns
// it), validated and term-normalized by Store.Subscribe. 201 carries the
// stored form — assigned ID, tokenized terms — and a Location header.
func (s *Server) handleSubscriptionCreate(w http.ResponseWriter, r *http.Request) {
	if !s.requireSubs(w) {
		return
	}
	var spec stburst.Subscription
	if !DecodeBody(w, r, MaxBody, "subscription", &spec) {
		return
	}
	if spec.ID != 0 {
		WriteError(w, http.StatusBadRequest, "id is assigned by the server; omit it")
		return
	}
	// Refuse visibly-private webhook targets up front (an unparseable
	// URL falls through to Subscribe's own validation error). Hostnames
	// pass here; whatever they resolve to is enforced again at dial
	// time by the dispatcher, which this check cannot replace.
	if spec.Webhook != "" && !s.allowPrivateHooks {
		if u, err := url.Parse(spec.Webhook); err == nil {
			if err := sub.CheckWebhookHost(u.Hostname()); err != nil {
				WriteError(w, http.StatusBadRequest, err.Error())
				return
			}
		}
	}
	stored, err := s.store.Subscribe(spec)
	if err != nil {
		if errors.Is(err, stburst.ErrSubscriptionLimit) {
			WriteError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/subscriptions/"+strconv.FormatUint(stored.ID, 10))
	WriteJSON(w, http.StatusCreated, stored)
}

// handleSubscriptionList answers GET /v1/subscriptions with every
// registered standing query in ascending ID order.
func (s *Server) handleSubscriptionList(w http.ResponseWriter, r *http.Request) {
	if !s.requireSubs(w) {
		return
	}
	subs := s.store.Subscriptions()
	if subs == nil {
		subs = []stburst.Subscription{}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"count":         len(subs),
		"subscriptions": subs,
	})
}

// subscriptionID parses the {id} path segment; 0 is never assigned, so
// it is as invalid as garbage.
func subscriptionID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil || id == 0 {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("invalid subscription id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

func (s *Server) handleSubscriptionGet(w http.ResponseWriter, r *http.Request) {
	if !s.requireSubs(w) {
		return
	}
	id, ok := subscriptionID(w, r)
	if !ok {
		return
	}
	spec, ok := s.store.LookupSubscription(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("no subscription %d", id))
		return
	}
	WriteJSON(w, http.StatusOK, spec)
}

func (s *Server) handleSubscriptionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.requireSubs(w) {
		return
	}
	id, ok := subscriptionID(w, r)
	if !ok {
		return
	}
	if !s.store.Unsubscribe(id) {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("no subscription %d", id))
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"deleted": true, "id": id})
}

// handleAlertStream answers GET /v1/alerts/stream: a Server-Sent Events
// feed carrying every alert batch any subscription matches, until the
// client disconnects. The feed is a firehose — clients filter by the
// subscription_id in each event — and a slow reader has events dropped
// (the broker's buffers are bounded) rather than stalling ingest.
func (s *Server) handleAlertStream(w http.ResponseWriter, r *http.Request) {
	if !s.requireSubs(w) {
		return
	}
	// A stream outlives every per-request deadline by design; lift both
	// (the read deadline too — its expiry would tear the connection down
	// under the handler).
	rc := http.NewResponseController(w)
	if err := rc.SetWriteDeadline(time.Time{}); err != nil {
		log.Printf("alert stream: clearing write deadline: %v", err)
	}
	if err := rc.SetReadDeadline(time.Time{}); err != nil {
		log.Printf("alert stream: clearing read deadline: %v", err)
	}
	// Subscribe before announcing the stream: an alert published after
	// the client has read the opening line must reach it.
	events, cancel := s.broker.Subscribe(64)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// An opening comment line flushes the headers immediately, so a
	// client knows it is connected before the first alert fires.
	if _, err := io.WriteString(w, ": connected\n\n"); err != nil {
		return
	}
	if err := rc.Flush(); err != nil {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			if _, err := w.Write(ev); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		}
	}
}

// alertBatchJSON is one delivery unit: every alert a single ingest
// produced for a single subscription. The same body is POSTed to the
// subscription's webhook and published as one SSE event.
type alertBatchJSON struct {
	SubscriptionID uint64          `json:"subscription_id"`
	Owner          string          `json:"owner,omitempty"`
	Generation     uint64          `json:"generation"`
	Count          int             `json:"count"`
	Alerts         []stburst.Alert `json:"alerts"`
}

// deliverAlerts is the store's alert sink: it runs on the ingesting
// goroutine after each batch's matches are computed, so it only groups,
// marshals and enqueues — the dispatcher and broker are both
// non-blocking. Alerts arrive sorted by subscription, so one pass over
// contiguous runs yields exactly one delivery per (ingest,
// subscription).
func (s *Server) deliverAlerts(alerts []stburst.Alert) {
	s.alertsMatched.Add(int64(len(alerts)))
	for start := 0; start < len(alerts); {
		end := start + 1
		for end < len(alerts) && alerts[end].SubscriptionID == alerts[start].SubscriptionID {
			end++
		}
		s.deliverBatch(alerts[start:end])
		start = end
	}
}

// deliverBatch publishes one subscription's alerts to the SSE feed and,
// when the subscription registered a webhook, enqueues the POST.
func (s *Server) deliverBatch(run []stburst.Alert) {
	body, err := json.Marshal(alertBatchJSON{
		SubscriptionID: run[0].SubscriptionID,
		Owner:          run[0].Owner,
		Generation:     run[0].Generation,
		Count:          len(run),
		Alerts:         run,
	})
	if err != nil {
		log.Printf("alerts: encoding batch for subscription %d: %v", run[0].SubscriptionID, err)
		return
	}
	s.broker.Publish(sub.FormatEvent(body))
	// The subscription may have been deleted between matching and
	// delivery; the lookup also picks up the current webhook.
	if spec, ok := s.store.LookupSubscription(run[0].SubscriptionID); ok && spec.Webhook != "" {
		s.dispatcher.Enqueue(sub.Batch{
			SubscriptionID: spec.ID,
			URL:            spec.Webhook,
			Alerts:         len(run),
			Body:           body,
		})
	}
}
