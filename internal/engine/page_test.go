package engine

import (
	"context"
	"fmt"
	"testing"

	"fastintersect/internal/invindex"
	"fastintersect/internal/sets"
)

// wantPage is the page a limit selects from the full reference result: all
// of it for a negative limit, nil for 0, else its first limit docs.
func wantPage(want []uint32, limit int) []uint32 {
	switch {
	case limit == 0:
		return nil
	case limit < 0 || limit >= len(want):
		return want
	}
	return want[:limit]
}

// checkPage compares a paged result against the reference page: the full
// count, the docs in ascending order, and nil docs for a count-only page.
func checkPage(t *testing.T, what string, res *Result, want []uint32, limit int) {
	t.Helper()
	page := wantPage(want, limit)
	if res.Count != len(want) {
		t.Fatalf("%s: Count = %d, want %d", what, res.Count, len(want))
	}
	if !sets.Equal(res.Docs, page) {
		t.Fatalf("%s: %d docs %v, want the first %d %v", what, len(res.Docs), head(res.Docs), len(page), head(page))
	}
	if limit == 0 && res.Docs != nil {
		t.Fatalf("%s: count-only page materialized %d docs", what, len(res.Docs))
	}
}

// TestQueryPageParity pins the page contract of QueryLimitContext and
// QueryBatchLimitContext against the scan reference: for every limit
// around the result size — 0, 1, 10, r−1, r, r+1 and −1 — the page is the
// reference's ascending prefix and Count is the full size, over one and
// four shards, raw and compressed storage, a base-only index and a tier of
// frozen and active segments with tombstoned base copies, and with the
// result cache on and off. With the cache on it also pins the prefix
// transitions: a limit-10 page, then the full result, then a limit-5 page.
func TestQueryPageParity(t *testing.T) {
	const numDocs = 3000
	ctx := context.Background()
	for _, storage := range []invindex.Storage{invindex.StorageRaw, invindex.StorageCompressed} {
		for _, shards := range []int{1, 4} {
			for _, tiered := range []bool{false, true} {
				for _, cacheSize := range []int{0, 64} {
					name := fmt.Sprintf("%v/shards=%d/tiered=%v/cache=%d", storage, shards, tiered, cacheSize)
					t.Run(name, func(t *testing.T) {
						e := buildTestEngine(t, Config{Shards: shards, Storage: storage, CacheSize: cacheSize}, numDocs)
						if tiered {
							reAddToTier(t, e, numDocs, 3)
						}
						if cacheSize > 0 {
							checkPrefixTransitions(t, e, numDocs)
						}
						for _, tq := range testQueries {
							if tq.pred == nil {
								if _, err := e.QueryLimitContext(ctx, tq.q, 10); err == nil {
									t.Fatalf("QueryLimitContext(%q) accepted, want error", tq.q)
								}
								continue
							}
							want := refEval(numDocs, tq.pred)
							r := len(want)
							for _, limit := range []int{0, 1, 10, r - 1, r, r + 1, -1} {
								res, err := e.QueryLimitContext(ctx, tq.q, limit)
								if err != nil {
									t.Fatalf("QueryLimitContext(%q, %d): %v", tq.q, limit, err)
								}
								checkPage(t, fmt.Sprintf("QueryLimitContext(%q, %d)", tq.q, limit), res, want, limit)
							}
						}
						var qs []string
						for _, tq := range testQueries {
							qs = append(qs, tq.q)
						}
						for _, limit := range []int{0, 1, 10, numDocs, -1} {
							for i, br := range e.QueryBatchLimitContext(ctx, qs, limit) {
								if testQueries[i].pred == nil {
									if br.Err == nil {
										t.Fatalf("batch accepted %q, want error", qs[i])
									}
									continue
								}
								if br.Err != nil {
									t.Fatalf("batch %q at limit %d: %v", qs[i], limit, br.Err)
								}
								checkPage(t, fmt.Sprintf("batch %q at limit %d", qs[i], limit),
									br.Result, refEval(numDocs, testQueries[i].pred), limit)
							}
						}
					})
				}
			}
		}
	}
}

// checkPrefixTransitions runs, on a cold cache, a limit-10 page, the full
// result and a limit-5 page of every distinct canonical form: the first
// misses and caches a 10-doc prefix, the second hits only if that prefix is
// already the whole result (else it misses — a plain miss, not a stale one —
// and replaces the entry with the complete result), and the third hits.
func checkPrefixTransitions(t *testing.T, e *Engine, numDocs uint32) {
	t.Helper()
	ctx := context.Background()
	seen := map[string]bool{}
	for _, tq := range testQueries {
		if tq.pred == nil {
			continue
		}
		want := refEval(numDocs, tq.pred)
		first, err := e.QueryLimitContext(ctx, tq.q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if seen[first.Normalized] {
			continue
		}
		seen[first.Normalized] = true
		if first.Cached {
			t.Fatalf("%q: first limit-10 page served from a cold cache", tq.q)
		}
		checkPage(t, fmt.Sprintf("%q at limit 10", tq.q), first, want, 10)

		before := e.cache.stats()
		full, err := e.QueryLimitContext(ctx, tq.q, -1)
		if err != nil {
			t.Fatal(err)
		}
		after := e.cache.stats()
		checkPage(t, fmt.Sprintf("%q unlimited after a limit-10 page", tq.q), full, want, -1)
		if wantHit := len(want) <= 10; full.Cached != wantHit {
			t.Fatalf("%q: unlimited query Cached = %v over a 10-doc prefix of %d docs, want %v",
				tq.q, full.Cached, len(want), wantHit)
		}
		if after.Stale != before.Stale {
			t.Fatalf("%q: a prefix too short for the page counted as stale: %+v → %+v", tq.q, before, after)
		}
		if !full.Cached && after.Misses != before.Misses+1 {
			t.Fatalf("%q: short-prefix lookup not counted as a miss: %+v → %+v", tq.q, before, after)
		}

		five, err := e.QueryLimitContext(ctx, tq.q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !five.Cached {
			t.Fatalf("%q: limit-5 page missed the complete cached result", tq.q)
		}
		checkPage(t, fmt.Sprintf("%q at limit 5", tq.q), five, want, 5)
	}
}
