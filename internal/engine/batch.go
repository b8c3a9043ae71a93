package engine

import (
	"context"

	"fastintersect/internal/plan"
)

// BatchResult pairs one query of a QueryBatch call with its outcome.
// Exactly one of Result and Err is set.
type BatchResult struct {
	Result *Result
	Err    error
}

// QueryBatch executes many queries as one unit, amortizing what a loop of
// Query calls would repeat:
//
//   - queries that normalize to the same canonical form are parsed, planned
//     and executed once (they share one *Result);
//   - the plans of all cache misses come from the plan cache Query uses
//     (a miss builds and memoizes one), so a repeated batch re-plans
//     nothing;
//   - all cache misses run in ONE pass of the engine's shard fan-out: each
//     shard evaluates the whole batch on one pooled execution context, so
//     the decoded-term memo of compressed storage is shared across the
//     batch — a compressed term appearing in ten queries is decoded once
//     per shard, not ten times — and each shard is visited once for the
//     whole batch instead of once per query.
//
// Results are positionally aligned with queries. Parse failures are
// reported per query; an evaluation error fails only the queries sharing
// that canonical form. Like Query, every returned Docs slice is fresh or
// cache-shared and safe to retain.
func (e *Engine) QueryBatch(queries []string) []BatchResult {
	return e.QueryBatchContext(context.Background(), queries)
}

// QueryBatchCount is QueryBatch in count-only mode: every result carries
// only Result.Count (Docs stays nil). It is QueryBatchLimitContext with
// limit 0, so the batch skips result materialization the same way
// QueryCount does — per-shard result lengths are summed without building
// merged slices. Deduplication, shared planning and the per-shard
// execution-context sharing are identical to QueryBatch.
func (e *Engine) QueryBatchCount(queries []string) []BatchResult {
	return e.QueryBatchCountContext(context.Background(), queries)
}

// QueryBatchCountContext is QueryBatchCount under a request context (see
// QueryBatchContext).
func (e *Engine) QueryBatchCountContext(ctx context.Context, queries []string) []BatchResult {
	return e.QueryBatchLimitContext(ctx, queries, 0)
}

// QueryBatchContext is QueryBatch under a request context: a cancelled or
// expired ctx aborts the remaining evaluations, and every query that did not
// complete before the abort reports ctx's error. Shard workers observe the
// context between queries and inside the exec loops (the same polling Query
// uses), so a batch never outlives its deadline by more than one poll
// interval per worker.
func (e *Engine) QueryBatchContext(ctx context.Context, queries []string) []BatchResult {
	return e.QueryBatchLimitContext(ctx, queries, -1)
}

// QueryBatchLimitContext is QueryBatchContext returning only the first limit
// docs of every result (all of them for a negative limit, none for 0), with
// each Result.Count still the full result size — the batch form of
// QueryLimitContext, with the same page-sized merge and prefix caching.
func (e *Engine) QueryBatchLimitContext(ctx context.Context, queries []string, limit int) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	e.met.batches.Inc()
	e.met.queries.Add(uint64(len(queries)))

	// Parse and deduplicate by canonical form, preserving first-seen order.
	byKey := map[string]*batchPending{}
	var uniq []*batchPending
	for i, q := range queries {
		ast, err := plan.Parse(q)
		if err != nil {
			e.met.queryErrors.Inc()
			out[i] = BatchResult{Err: err}
			continue
		}
		key := ast.String()
		u, ok := byKey[key]
		if !ok {
			u = &batchPending{key: key, ast: ast}
			byKey[key] = u
			uniq = append(uniq, u)
		}
		u.idxs = append(u.idxs, i)
	}

	gen := e.gen.Load()
	var pending []*batchPending
	for _, u := range uniq {
		if docs, count, ok := e.cache.get(u.key, gen, limit); ok {
			u.res = &Result{Docs: page(docs, limit), Count: count, Normalized: u.key, Cached: true}
			continue
		}
		pending = append(pending, u)
	}

	if len(pending) > 0 {
		if shards := e.snapshot(); shards == nil {
			for _, u := range pending {
				e.met.queryErrors.Add(uint64(len(u.idxs)))
				u.err = ErrNotBuilt
			}
		} else {
			e.runBatch(ctx, shards, pending, gen, limit)
		}
	}

	for _, u := range uniq {
		for _, i := range u.idxs {
			out[i] = BatchResult{Result: u.res, Err: u.err}
		}
	}
	return out
}

// batchPending is one canonical form of a batch: the queries that share it
// and its outcome.
type batchPending struct {
	key  string
	ast  plan.Node
	res  *Result
	err  error
	idxs []int // positions in the caller-aligned result slice
}

// runBatch looks up every pending canonical form's plan (through the plan
// cache, like Query) and evaluates them all in one shard fan-out, so each
// shard runs the whole batch on one execution context. Each result is
// merged into its page of limit docs and cached as a prefix entry.
func (e *Engine) runBatch(ctx context.Context, shards []*shard, pending []*batchPending, gen uint64, limit int) {
	plans := make([]*plan.Plan, len(pending))
	for j, u := range pending {
		plans[j] = e.lookupPlan(shards, u.ast, u.key, nil)
	}
	qc := e.fanOut(ctx, shards, plans, nil, nil)
	for j, u := range pending {
		if err := qc.err(j); err != nil {
			e.met.queryErrors.Add(uint64(len(u.idxs)))
			u.err = err
			continue
		}
		merged, count := mergeShards(qc.row(j), limit)
		e.cache.put(u.key, merged, count, gen)
		u.res = &Result{Docs: merged, Count: count, Normalized: u.key}
	}
	putQueryCtx(qc)
}
