package admission

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"fastintersect/internal/obs"
)

// Singleflight coalescing of identical in-flight queries: under a hot-key
// burst (a trending query hitting every frontend at once) the engine should
// run the query once and every concurrent duplicate should share that
// execution's result. The key is (canonical query form, index generation,
// page limit) — canonicalization makes syntactic variants of one query
// collapse, the generation component keeps a coalesced result from leaking
// across a mutation boundary (a query admitted after a delta publish never
// attaches to an execution planned against the previous index state), and
// the limit component keeps a caller from receiving a page of another
// length than it asked for.

// Key identifies one coalescable execution.
type Key struct {
	Canon string // canonical (normalized) query text
	Gen   uint64 // index generation the execution is planned against
	// Limit is the page the execution returns: the first Limit docs, all of
	// them for -1, only the count for 0.
	Limit int
}

// Coalescer deduplicates concurrent executions by Key. The zero value is
// not usable; NewCoalescer wires the shared-execution counter into an obs
// registry.
type Coalescer[V any] struct {
	mu        sync.Mutex
	inflight  map[Key]*call[V]
	coalesced atomic.Uint64
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewCoalescer builds a Coalescer and registers fsi_coalesced_queries_total
// (executions avoided by attaching to an in-flight duplicate) in reg; nil
// reg registers into a private registry.
func NewCoalescer[V any](reg *obs.Registry) *Coalescer[V] {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coalescer[V]{inflight: map[Key]*call[V]{}}
	reg.CounterFunc("fsi_coalesced_queries_total",
		"Queries that shared an identical in-flight execution instead of running.",
		c.coalesced.Load)
	return c
}

// Do executes fn under singleflight semantics: the first caller for k (the
// leader) runs fn and every concurrent caller with the same k (a follower)
// blocks until the leader finishes, then receives the same value and error.
// shared reports whether this caller was a follower. A follower whose ctx
// expires first returns ctx.Err() without disturbing the leader.
//
// A panic in fn is converted into an error delivered to leader and
// followers alike — a poisoned query must not wedge its waiters.
func (c *Coalescer[V]) Do(ctx context.Context, k Key, fn func() (V, error)) (v V, shared bool, err error) {
	c.mu.Lock()
	if cl, ok := c.inflight[k]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-cl.done:
			return cl.val, true, cl.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	cl := &call[V]{done: make(chan struct{})}
	c.inflight[k] = cl
	c.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			cl.err = fmt.Errorf("admission: coalesced execution panicked: %v", r)
			err = cl.err
		}
		// Remove the entry before waking followers so a caller arriving
		// after completion starts a fresh execution rather than reading a
		// stale result.
		c.mu.Lock()
		delete(c.inflight, k)
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.val, cl.err = fn()
	return cl.val, false, cl.err
}
