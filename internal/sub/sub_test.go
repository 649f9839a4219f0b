package sub

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spec is a test-local standing query. The registry treats its spec as
// opaque, so this one carries pointers for the deep-copy test to poke.
type spec struct {
	ID       uint64
	Owner    string
	Terms    []string
	Kind     int
	Region   *box
	Time     *span
	MinScore float64
}

type box struct{ MinX, MinY, MaxX, MaxY float64 }

type span struct{ Start, End int }

// clone deep-copies every slice and pointer of the spec.
func (s spec) clone() spec {
	c := s
	c.Terms = append([]string(nil), s.Terms...)
	if s.Region != nil {
		r := *s.Region
		c.Region = &r
	}
	if s.Time != nil {
		t := *s.Time
		c.Time = &t
	}
	return c
}

func newRegistry() *Registry[spec] { return NewRegistry(spec.clone) }

// add registers s under its own terms, stamping the assigned ID into it.
func add(r *Registry[spec], s spec) (spec, error) {
	return r.Add(s.Terms, func(id uint64) spec { s.ID = id; return s })
}

func restore(r *Registry[spec], s spec) error { return r.Restore(s.ID, s.Terms, s) }

func TestRegistryAddGetRemove(t *testing.T) {
	r := newRegistry()
	if _, err := add(r, spec{Owner: "x"}); err == nil {
		t.Fatalf("Add with no terms should fail")
	}
	s1, err := add(r, spec{Owner: "alice", Terms: []string{"quake", "tremor"}, MinScore: 1.5})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if s1.ID != 1 {
		t.Fatalf("first ID = %d, want 1", s1.ID)
	}
	s2, err := add(r, spec{Owner: "bob", Terms: []string{"quake"}, Kind: 2})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if s2.ID != 2 {
		t.Fatalf("second ID = %d, want 2", s2.ID)
	}
	if got := r.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	got, ok := r.Get(1)
	if !ok || got.Owner != "alice" || len(got.Terms) != 2 || got.MinScore != 1.5 {
		t.Fatalf("Get(1) = %+v ok=%v", got, ok)
	}
	if cands := r.Candidates("quake"); len(cands) != 2 || cands[0].ID != 1 || cands[1].ID != 2 {
		t.Fatalf("Candidates(quake) = %+v", cands)
	}
	if cands := r.Candidates("tremor"); len(cands) != 1 || cands[0].ID != 1 {
		t.Fatalf("Candidates(tremor) = %+v", cands)
	}
	if cands := r.Candidates("nobody"); cands != nil {
		t.Fatalf("Candidates(nobody) = %+v, want nil", cands)
	}
	if !r.Remove(1) {
		t.Fatalf("Remove(1) = false")
	}
	if r.Remove(1) {
		t.Fatalf("Remove(1) twice = true")
	}
	if cands := r.Candidates("tremor"); cands != nil {
		t.Fatalf("after remove, Candidates(tremor) = %+v", cands)
	}
	if cands := r.Candidates("quake"); len(cands) != 1 || cands[0].ID != 2 {
		t.Fatalf("after remove, Candidates(quake) = %+v", cands)
	}
	list := r.List()
	if len(list) != 1 || list[0].ID != 2 {
		t.Fatalf("List = %+v", list)
	}
}

func TestRegistryCopiesAreDeep(t *testing.T) {
	r := newRegistry()
	region := &box{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}
	ts := &span{Start: 2, End: 5}
	in := spec{Owner: "o", Terms: []string{"a"}, Region: region, Time: ts}
	added, err := add(r, in)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	// Mutating what the caller handed in (or got back) must not leak
	// into the registry.
	region.MaxX = 99
	ts.End = 99
	added.Terms[0] = "zzz"
	got, _ := r.Get(added.ID)
	if got.Region.MaxX != 1 || got.Time.End != 5 || got.Terms[0] != "a" {
		t.Fatalf("registry aliased caller memory: %+v", got)
	}
}

func TestRegistryRestore(t *testing.T) {
	r := newRegistry()
	if err := restore(r, spec{ID: 7, Terms: []string{"x"}}); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := restore(r, spec{ID: 7, Terms: []string{"y"}}); err == nil {
		t.Fatalf("duplicate Restore should fail")
	}
	if err := restore(r, spec{Terms: []string{"y"}}); err == nil {
		t.Fatalf("zero-ID Restore should fail")
	}
	s, err := add(r, spec{Terms: []string{"z"}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if s.ID != 8 {
		t.Fatalf("Add after Restore(7) assigned ID %d, want 8", s.ID)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := newRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s, err := add(r, spec{Terms: []string{"hot", "cold"}})
				if err != nil {
					t.Error(err)
					return
				}
				r.Candidates("hot")
				r.List()
				r.Remove(s.ID)
			}
		}()
	}
	wg.Wait()
	if got := r.Count(); got != 0 {
		t.Fatalf("Count after churn = %d, want 0", got)
	}
}

func TestDispatcherDeliversAndRetries(t *testing.T) {
	var hits atomic.Int64
	var failFirst atomic.Bool
	failFirst.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if failFirst.Swap(false) {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	d := NewDispatcher(DispatcherOptions{AllowPrivate: true})
	d.Enqueue(Batch{SubscriptionID: 1, URL: srv.URL, Alerts: 3, Body: []byte(`{"a":1}`)})
	d.Close()

	if got := hits.Load(); got != 2 {
		t.Fatalf("sink hit %d times, want 2 (one failure + one success)", got)
	}
	st := d.Stats()
	if st.DeliveredBatches != 1 || st.DeliveredAlerts != 3 || st.DroppedBatches != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDispatcherDropsAfterRetriesExhausted(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer srv.Close()

	d := NewDispatcher(DispatcherOptions{AllowPrivate: true})
	d.Enqueue(Batch{SubscriptionID: 1, URL: srv.URL, Alerts: 2, Body: []byte(`{}`)})
	d.Close()

	if got := hits.Load(); got != retries {
		t.Fatalf("sink hit %d times, want %d attempts", got, retries)
	}
	st := d.Stats()
	if st.DroppedBatches != 1 || st.DroppedAlerts != 2 || st.DeliveredBatches != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDispatcherQueueOverflowDrops: with every worker held by a sink
// that does not answer, queueLen more batches wait and the next one is
// dropped at once.
func TestDispatcherQueueOverflowDrops(t *testing.T) {
	block := make(chan struct{})
	var inflight atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		<-block
	}))
	defer srv.Close()

	d := NewDispatcher(DispatcherOptions{AllowPrivate: true})
	enqueue := func(n int) {
		for range n {
			d.Enqueue(Batch{SubscriptionID: 1, URL: srv.URL, Alerts: 1, Body: []byte(`{}`)})
		}
	}
	enqueue(workers)
	deadline := time.Now().Add(2 * time.Second)
	for inflight.Load() < workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := inflight.Load(); got != workers {
		t.Fatalf("%d deliveries in flight, want all %d workers busy", got, workers)
	}
	enqueue(queueLen)
	if st := d.Stats(); st.DroppedBatches != 0 {
		t.Fatalf("dropped with the queue not yet full: %+v", st)
	}
	enqueue(1)
	if st := d.Stats(); st.DroppedBatches != 1 || st.DroppedAlerts != 1 {
		t.Fatalf("stats = %+v, want the batch past the full queue dropped", st)
	}
	close(block)
	d.Close()
	if st := d.Stats(); st.DeliveredBatches != workers+queueLen {
		t.Fatalf("stats after drain = %+v, want %d delivered", st, workers+queueLen)
	}
}

// TestDispatcherEnqueueCloseRace: Enqueue racing Close must never panic
// with a send on the closed queue — late batches are silently refused
// instead. Exercised under -race by the race suite.
func TestDispatcherEnqueueCloseRace(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	d := NewDispatcher(DispatcherOptions{AllowPrivate: true})
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 200; j++ {
				d.Enqueue(Batch{SubscriptionID: 1, URL: srv.URL, Alerts: 1, Body: []byte(`{}`)})
			}
		}()
	}
	close(start)
	d.Close() // races the enqueuers
	wg.Wait()
	d.Close() // and stays idempotent afterwards
}

func TestBrokerFanOutAndSlowClientDrop(t *testing.T) {
	b := NewBroker()
	fast, cancelFast := b.Subscribe(4)
	slow, cancelSlow := b.Subscribe(1)
	defer cancelFast()
	defer cancelSlow()
	if b.Clients() != 2 {
		t.Fatalf("Clients = %d, want 2", b.Clients())
	}
	b.Publish([]byte("one"))
	b.Publish([]byte("two")) // overflows slow's buffer of 1
	if got := string(<-fast); got != "one" {
		t.Fatalf("fast got %q", got)
	}
	if got := string(<-fast); got != "two" {
		t.Fatalf("fast got %q", got)
	}
	if got := string(<-slow); got != "one" {
		t.Fatalf("slow got %q", got)
	}
	select {
	case extra := <-slow:
		t.Fatalf("slow client should have dropped, got %q", extra)
	default:
	}
	if b.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", b.Dropped())
	}
	cancelSlow()
	if b.Clients() != 1 {
		t.Fatalf("Clients after cancel = %d, want 1", b.Clients())
	}
	// Double-cancel is safe.
	cancelSlow()
}

func TestFormatEvent(t *testing.T) {
	got := string(FormatEvent([]byte(`{"x":1}`)))
	want := "event: alert\ndata: {\"x\":1}\n\n"
	if got != want {
		t.Fatalf("FormatEvent = %q, want %q", got, want)
	}
}

// TestRegistryLimit: Add refuses past SetLimit with ErrRegistryFull,
// Remove frees a slot, and Restore is exempt — a persisted set must
// always load regardless of the runtime limit.
func TestRegistryLimit(t *testing.T) {
	r := newRegistry()
	r.SetLimit(2)
	for i := 0; i < 2; i++ {
		if _, err := add(r, spec{Terms: []string{"quake"}}); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	if _, err := add(r, spec{Terms: []string{"quake"}}); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("Add past limit = %v, want ErrRegistryFull", err)
	}
	if err := restore(r, spec{ID: 99, Terms: []string{"quake"}}); err != nil {
		t.Fatalf("Restore at limit: %v", err)
	}
	if !r.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	// 2 live after the remove, but the restored one pushed len to 2 again;
	// limit still enforced against live count.
	if _, err := add(r, spec{Terms: []string{"quake"}}); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("Add at limit after restore = %v, want ErrRegistryFull", err)
	}
}
