package connector

import (
	"context"
	"errors"
	"log"
	"sync"
	"sync/atomic"
	"time"
)

// Source lifecycle states as the supervisor reports them.
const (
	StateIdle    = "idle"    // added but Start not called yet
	StateRunning = "running" // Run is executing
	StateBackoff = "backoff" // Run failed; waiting to restart
	StateStopped = "stopped" // clean exit or supervisor stopped
)

// SourceState is one supervised source's full status: its own counters
// plus what the supervisor knows about it.
type SourceState struct {
	SourceStats
	State    string `json:"state"`
	Restarts int64  `json:"restarts"`
}

// Restart backoff: the first restart of a failed source waits
// backoffBase, and each consecutive failure doubles the wait up to
// backoffMax. A source that ran for healthyAfter before failing is
// treated as freshly failed and starts again from backoffBase. The base
// outlasts a listening port's brief unavailability after a fast
// restart; the cap keeps a feed that stays broken from spinning while
// still retrying twice a minute.
const (
	backoffBase  = 500 * time.Millisecond
	backoffMax   = 30 * time.Second
	healthyAfter = time.Minute
)

// Supervisor owns a set of sources: it runs each in its own goroutine,
// restarts one that fails with capped exponential backoff, and folds
// their stats into one snapshot for /v1/stats and the metrics
// registry. Add every source before Start; Stop cancels and waits for
// every source to drain, which is the graceful-shutdown hook the
// server calls before closing the ingesters and the WAL. Restart
// decisions are logged through log.Printf.
type Supervisor struct {
	srcs    []*supervised
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started bool
}

type supervised struct {
	src      Source
	restarts atomic.Int64
	state    atomic.Pointer[string]
}

func (sv *supervised) setState(s string) { sv.state.Store(&s) }

// NewSupervisor builds an empty supervisor.
func NewSupervisor() *Supervisor { return &Supervisor{} }

// Add registers a source. Must be called before Start.
func (s *Supervisor) Add(src Source) {
	if s.started {
		panic("connector: Add after Start")
	}
	sv := &supervised{src: src}
	sv.setState(StateIdle)
	s.srcs = append(s.srcs, sv)
}

// NumSources reports how many sources are registered.
func (s *Supervisor) NumSources() int { return len(s.srcs) }

// Start launches every source. The supervisor derives its own context
// from ctx; Stop cancels it.
func (s *Supervisor) Start(ctx context.Context) {
	if s.started {
		panic("connector: Start called twice")
	}
	s.started = true
	ctx, s.cancel = context.WithCancel(ctx)
	for _, sv := range s.srcs {
		s.wg.Add(1)
		go s.run(ctx, sv)
	}
}

// Stop cancels every source and waits for them to drain. Safe to call
// once after Start; a supervisor that was never started is a no-op.
func (s *Supervisor) Stop() {
	if s.cancel == nil {
		return
	}
	s.cancel()
	s.wg.Wait()
}

// run is one source's supervision loop: run it, and on failure back
// off (doubling, capped) and run it again. A clean return — nil or the
// context's own error — ends supervision: the source finished or the
// supervisor is stopping.
func (s *Supervisor) run(ctx context.Context, sv *supervised) {
	defer s.wg.Done()
	backoff := backoffBase
	for {
		sv.setState(StateRunning)
		started := time.Now()
		err := sv.src.Run(ctx)
		if ctx.Err() != nil || err == nil || errors.Is(err, context.Canceled) {
			sv.setState(StateStopped)
			return
		}
		if time.Since(started) >= healthyAfter {
			backoff = backoffBase
		}
		sv.restarts.Add(1)
		log.Printf("connector %s: %v; restarting in %s", sv.src.Name(), err, backoff)
		sv.setState(StateBackoff)
		select {
		case <-ctx.Done():
			sv.setState(StateStopped)
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, backoffMax)
	}
}

// Stats snapshots every source in Add order. The slice order is stable
// across calls, so metric closures can capture an index.
func (s *Supervisor) Stats() []SourceState {
	out := make([]SourceState, len(s.srcs))
	for i := range s.srcs {
		out[i] = s.StatAt(i)
	}
	return out
}

// StatAt snapshots the i'th source (Add order).
func (s *Supervisor) StatAt(i int) SourceState {
	sv := s.srcs[i]
	st := SourceState{
		SourceStats: sv.src.Stats(),
		Restarts:    sv.restarts.Load(),
	}
	if p := sv.state.Load(); p != nil {
		st.State = *p
	}
	return st
}
