package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"fastintersect/internal/admission"
	"fastintersect/internal/engine"
	"fastintersect/internal/plan"
	"fastintersect/internal/workload"
)

// handlerDeadline is fsiserve's default per-request deadline, which the
// handler applies to every query context.
const handlerDeadline = 2 * time.Second

// inproc drives an engine configured like fsiserve through the calls the
// /query handler makes, in the handler's order, without HTTP.
type inproc struct {
	eng  *engine.Engine
	gate *admission.Gate
	coal *admission.Coalescer[*engine.Result]
}

// newInproc builds the engine and installs the corpus the way fsiserve's
// loadCorpus does; the returned duration covers the AddPosting loop and
// Install.
func newInproc(w workloadSpec, corpus *workload.Real) (*inproc, time.Duration, error) {
	cfg := engine.Config{
		Shards:           serverShards,
		CacheSize:        4096,
		CompactThreshold: 50_000,
		PlanFeedback:     true,
	}
	if w.compact > 0 {
		cfg.CompactThreshold = w.compact
	}
	eng := engine.New(cfg)
	start := time.Now()
	b := eng.NewBuilder()
	for t, postings := range corpus.Postings {
		if err := b.AddPosting(workload.TermName(t), postings); err != nil {
			return nil, 0, err
		}
	}
	if err := eng.Install(b); err != nil {
		return nil, 0, err
	}
	install := time.Since(start)
	reg := eng.Metrics()
	return &inproc{eng: eng, gate: admission.NewGate(admission.Config{}, reg),
		coal: admission.NewCoalescer[*engine.Result](reg)}, install, nil
}

// maxSpansPerOp is the most spans do records for one op.
const maxSpansPerOp = 5

// clientKey is what the handler derives for a loopback peer.
const clientKey = "127.0.0.1"

// do runs one op; rec may be nil (untraced).
func (p *inproc) do(o *op, names []string, opID int32, rec *recorder) error {
	switch o.kind {
	case opAdd:
		s := rec.begin(spanAdd, opID, -1)
		err := p.eng.AddDocument(o.doc, names)
		rec.end(s)
		return err
	case opDelete:
		s := rec.begin(spanDelete, opID, -1)
		_, err := p.eng.DeleteDocument(o.doc)
		rec.end(s)
		return err
	}
	root := rec.begin(spanQueryOp, opID, -1)
	defer rec.end(root)
	ctx, cancel := context.WithTimeout(context.Background(), handlerDeadline)
	defer cancel()
	s := rec.begin(spanCanonicalize, opID, root)
	canon, err := p.eng.Canonicalize(o.q.text)
	rec.end(s)
	if err != nil {
		return err
	}
	key := admission.Key{Canon: canon, Gen: p.eng.Generation()}
	c := rec.begin(spanCoalesce, opID, root)
	_, _, err = p.coal.Do(ctx, key, func() (*engine.Result, error) {
		a := rec.begin(spanAcquire, opID, c)
		tk, err := p.gate.Acquire(ctx, clientKey)
		rec.end(a)
		if err != nil {
			return nil, err
		}
		defer p.gate.Release(tk)
		q := rec.begin(spanQuery, opID, c)
		defer rec.end(q)
		return p.eng.QueryContext(ctx, o.q.text)
	})
	rec.end(c)
	return err
}

// replay is a cursor over the in-process op stream: the clients' lists
// interleaved, which keeps every document's writes in stream order.
type replay struct {
	ops   []op
	names [][]string // term names of adds
	cycle bool
	next  int
}

func newReplay(set *opSet) *replay {
	r := &replay{cycle: set.cycle}
	for i := 0; ; i++ {
		more := false
		for c := range set.clients {
			if i < len(set.clients[c]) {
				r.ops = append(r.ops, set.clients[c][i])
				more = true
			}
		}
		if !more {
			break
		}
	}
	r.names = make([][]string, len(r.ops))
	for i, o := range r.ops {
		for _, t := range o.terms {
			r.names[i] = append(r.names[i], workload.TermName(int(t)))
		}
	}
	return r
}

var errExhausted = errors.New("in-process op stream exhausted")

// run replays ops for d, until the stream ends, or until rec holds
// spanLimit spans, and returns how many ran and how long that took.
func (r *replay) run(p *inproc, d time.Duration, rec *recorder, spanLimit int) (int, time.Duration, error) {
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		if rec != nil && len(rec.spans)+maxSpansPerOp > spanLimit {
			break
		}
		if r.next == len(r.ops) {
			if !r.cycle {
				break
			}
			r.next = 0
		}
		i := r.next
		r.next++
		if err := p.do(&r.ops[i], r.names[i], int32(i), rec); err != nil {
			return n, time.Since(start), fmt.Errorf("in-process %v: %w", r.ops[i].kind, err)
		}
		n++
	}
	if n == 0 {
		return 0, 0, errExhausted
	}
	return n, time.Since(start), nil
}

// nextQueries returns up to n upcoming query texts without consuming ops.
func (r *replay) nextQueries(n int) []string {
	var out []string
	for k := 0; k < len(r.ops) && len(out) < n; k++ {
		i := r.next + k
		if i >= len(r.ops) {
			if !r.cycle {
				break
			}
			i -= len(r.ops)
		}
		if r.ops[i].kind == opQuery {
			out = append(out, r.ops[i].q.text)
		}
	}
	return out
}

// allocsPer runs f once per item and returns heap allocations and bytes
// per call.
func allocsPer(items []string, f func(string)) (allocs, bytes float64) {
	if len(items) == 0 {
		return 0, 0
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, s := range items {
		f(s)
	}
	runtime.ReadMemStats(&b)
	n := float64(len(items))
	return float64(b.Mallocs-a.Mallocs) / n, float64(b.TotalAlloc-a.TotalAlloc) / n
}

// parseSpans times plan.Parse over qs into rec.
func parseSpans(qs []string, rec *recorder) error {
	for i, q := range qs {
		s := rec.begin(spanParse, int32(i), -1)
		_, err := plan.Parse(q)
		rec.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}
