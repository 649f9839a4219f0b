// Package sub implements the standing-query subsystem behind burst
// alerting: a concurrent subscription registry with an inverted
// term→subscription index (so post-ingest matching costs O(dirty
// terms), never O(subscriptions)), and the delivery layer — a webhook
// dispatcher with bounded retry and an SSE broker — that turns matches
// into pushed alerts. The dispatcher's worker count, queue length,
// retries, backoff and timeout are constants (see deliver.go); the one
// deployment choice it takes is whether webhooks may target private
// addresses.
//
// The package deliberately knows nothing about pattern mining or about
// what a predicate contains: the store's ingest path owns the matching
// (it holds the fresh indexes and the dirty-term set) and hands finished
// alert batches to the delivery layer here. The registry stores an
// opaque spec — the root package's public Subscription — keyed by ID and
// indexed by the normalized terms it watches.
package sub

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// DefaultMaxSubscriptions bounds Add-registered subscriptions when no
// explicit limit is set. The registration surface is unauthenticated,
// so an unbounded registry would let one client grow memory without
// limit — and past the bundle codec's 1<<20 subscriptions ceiling,
// every subsequent save would fail. The default stays well below that
// ceiling so a registry at its limit always remains saveable.
const DefaultMaxSubscriptions = 1 << 16

// ErrRegistryFull is wrapped by Add when the registry holds its
// limit's worth of subscriptions; the HTTP layer maps it to 429.
var ErrRegistryFull = errors.New("sub: subscription limit reached")

// Registry is a concurrent store of standing-query specs S with an
// inverted term→ID index. It keeps, per ID, a private copy of the spec
// and of the normalized terms it watches; matching is keyed on term
// strings, not interned IDs, so a standing query may name vocabulary the
// corpus has not seen yet and starts matching the moment ingestion
// interns it. Reads (Candidates, Get, List) take the read lock;
// mutations are rare next to ingest-path lookups.
type Registry[S any] struct {
	mu     sync.RWMutex
	clone  func(S) S
	subs   map[uint64]entry[S]
	byTerm map[string]map[uint64]struct{}
	nextID uint64
	max    int
}

// entry is one registered spec and the terms it is indexed under.
type entry[S any] struct {
	spec  S
	terms []string
}

// NewRegistry returns an empty registry with the default Add limit.
// clone deep-copies a spec; the registry copies on the way in and out so
// it never aliases caller-held memory.
func NewRegistry[S any](clone func(S) S) *Registry[S] {
	return &Registry[S]{
		clone:  clone,
		subs:   make(map[uint64]entry[S]),
		byTerm: make(map[string]map[uint64]struct{}),
		max:    DefaultMaxSubscriptions,
	}
}

// SetLimit bounds the number of subscriptions Add accepts; n <= 0
// restores DefaultMaxSubscriptions. Restore is deliberately exempt —
// a persisted set the bundle codec accepted must always load.
func (r *Registry[S]) SetLimit(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 {
		n = DefaultMaxSubscriptions
	}
	r.max = n
}

// Add registers the spec spec(id) under the next free ID, watching
// terms, and returns the stored form. Terms must be non-empty — a
// termless subscription would have no inverted-index home and silently
// never match. A registry at its limit (SetLimit) refuses with
// ErrRegistryFull.
func (r *Registry[S]) Add(terms []string, spec func(id uint64) S) (S, error) {
	var zero S
	if len(terms) == 0 {
		return zero, fmt.Errorf("sub: subscription needs at least one term")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.subs) >= r.max {
		return zero, fmt.Errorf("%w (%d registered)", ErrRegistryFull, len(r.subs))
	}
	r.nextID++
	s := spec(r.nextID)
	r.insertLocked(r.nextID, terms, s)
	return r.clone(s), nil
}

// Restore re-registers a persisted spec under its saved ID — the load
// path's Add. A duplicate or zero ID is an error; the ID counter
// advances past every restored ID so later Adds never collide.
func (r *Registry[S]) Restore(id uint64, terms []string, spec S) error {
	if len(terms) == 0 {
		return fmt.Errorf("sub: subscription %d has no terms", id)
	}
	if id == 0 {
		return fmt.Errorf("sub: cannot restore a subscription without an ID")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.subs[id]; ok {
		return fmt.Errorf("sub: duplicate subscription ID %d", id)
	}
	if id > r.nextID {
		r.nextID = id
	}
	r.insertLocked(id, terms, spec)
	return nil
}

// insertLocked stores copies of one spec and its terms and indexes them;
// callers hold the write lock.
func (r *Registry[S]) insertLocked(id uint64, terms []string, spec S) {
	terms = append([]string(nil), terms...)
	r.subs[id] = entry[S]{spec: r.clone(spec), terms: terms}
	for _, t := range terms {
		m := r.byTerm[t]
		if m == nil {
			m = make(map[uint64]struct{})
			r.byTerm[t] = m
		}
		m[id] = struct{}{}
	}
}

// Remove deletes a subscription, reporting whether it existed.
func (r *Registry[S]) Remove(id uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.subs[id]
	if !ok {
		return false
	}
	delete(r.subs, id)
	for _, t := range e.terms {
		if m := r.byTerm[t]; m != nil {
			delete(m, id)
			if len(m) == 0 {
				delete(r.byTerm, t)
			}
		}
	}
	return true
}

// Get returns a copy of one subscription's spec.
func (r *Registry[S]) Get(id uint64) (S, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.subs[id]
	if !ok {
		var zero S
		return zero, false
	}
	return r.clone(e.spec), true
}

// List returns copies of every spec in ascending ID order.
func (r *Registry[S]) List() []S {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]uint64, 0, len(r.subs))
	for id := range r.subs {
		ids = append(ids, id)
	}
	return r.copiesLocked(ids)
}

// Count returns the number of registered subscriptions.
func (r *Registry[S]) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.subs)
}

// Candidates returns copies of the specs watching a term, in ascending
// ID order — the inverted-index lookup the post-ingest matcher does once
// per dirty term. A term nobody watches costs one map probe.
func (r *Registry[S]) Candidates(term string) []S {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m := r.byTerm[term]
	if len(m) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	return r.copiesLocked(ids)
}

// copiesLocked sorts ids ascending and returns copies of their specs;
// callers hold the read lock.
func (r *Registry[S]) copiesLocked(ids []uint64) []S {
	slices.Sort(ids)
	out := make([]S, len(ids))
	for i, id := range ids {
		out[i] = r.clone(r.subs[id].spec)
	}
	return out
}
