package sub

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

func TestCheckWebhookHost(t *testing.T) {
	blocked := []string{
		"localhost",
		"LOCALHOST",
		"127.0.0.1",
		"127.8.9.10",
		"::1",
		"10.0.0.7",
		"172.16.4.1",
		"192.168.1.50",
		"169.254.169.254", // cloud metadata
		"fe80::1",
		"::ffff:10.1.2.3", // IPv4-mapped IPv6 dodge
		"0.0.0.0",
		"::",
		"fd00::5", // IPv6 ULA
	}
	for _, h := range blocked {
		if err := CheckWebhookHost(h); err == nil {
			t.Errorf("CheckWebhookHost(%q) = nil, want refusal", h)
		}
	}
	allowed := []string{
		"93.184.216.34",                      // public IPv4
		"2606:2800:220:1:248:1893:25c8:1946", // public IPv6
		"example.com",                        // hostnames pass; the dial guard covers what they resolve to
		"hooks.internal",
	}
	for _, h := range allowed {
		if err := CheckWebhookHost(h); err != nil {
			t.Errorf("CheckWebhookHost(%q) = %v, want nil", h, err)
		}
	}
}

// TestDispatcherBlocksPrivateDial proves the second enforcement layer:
// even when a private target slips past registration (here by handing
// the dispatcher a loopback URL directly), the default transport's dial
// guard refuses the connection and the batch is dropped, not delivered.
func TestDispatcherBlocksPrivateDial(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer srv.Close()

	d := NewDispatcher(DispatcherOptions{})
	d.Enqueue(Batch{SubscriptionID: 1, URL: srv.URL, Alerts: 1, Body: []byte(`{}`)})
	d.Close()

	if got := hits.Load(); got != 0 {
		t.Fatalf("loopback sink was hit %d times; dial guard should have refused", got)
	}
	if st := d.Stats(); st.DroppedBatches != 1 || st.DeliveredBatches != 0 {
		t.Fatalf("stats = %+v, want the batch dropped", st)
	}
}
